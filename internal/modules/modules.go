// Package modules implements the pluggable-module framework that sits on
// top of the generalized work-stealing runtime.
//
// A HiPER module adds user-visible APIs that schedule module-specific tasks
// on the runtime. A complete module provides:
//
//  1. an initialization function, called once during the life of a process;
//  2. a finalization function, called once during the life of a process;
//  3. optional special-purpose registrations (for example, the CUDA module
//     registers itself as the handler for data transfers to or from GPU
//     places in the platform model);
//  4. a set of user-facing functions that extend HiPER's capabilities to a
//     new hardware or software component; these are commonly implemented by
//     placing asynchronous tasks at special-purpose places in the platform
//     model, so that all work created by all modules is scheduled together
//     on a single unified runtime.
//
// Modules are not part of the core runtime and can be implemented by any
// third party; the framework imposes no requirement that the wrapped
// software component be aware of HiPER or of other modules.
package modules

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// Module is the lifecycle contract every pluggable module implements.
type Module interface {
	// Name identifies the module (e.g. "mpi", "cuda") in diagnostics and
	// statistics.
	Name() string
	// Init is called exactly once, when the module is installed. Modules
	// assert their platform-model requirements here (for example, the MPI
	// module requires an interconnect place covered by some worker's pop
	// and steal paths) and perform special-purpose registrations.
	Init(rt *core.Runtime) error
	// Finalize is called exactly once, during runtime shutdown, in reverse
	// installation order.
	Finalize()
}

// registry tracks which modules are installed on which runtime, from the
// first Install until the runtime shuts down.
var registry sync.Map // *core.Runtime -> *runtimeModules

type runtimeModules struct {
	mu      sync.Mutex
	byName  map[string]Module
	ordered []Module
}

// Install initializes m on rt and registers its finalizer. Installing two
// modules with the same name on one runtime is an error, as is installing
// the same name twice.
func Install(rt *core.Runtime, m Module) error {
	v, loaded := registry.LoadOrStore(rt, &runtimeModules{byName: make(map[string]Module)})
	if !loaded {
		// Drop the entry at Shutdown so the registry does not pin the
		// runtime and its modules. Registered before any module's
		// finalizer, it runs last (LIFO), so Finalize can still use
		// Installed to reach its peers.
		rt.RegisterFinalizer(func() { registry.Delete(rt) })
	}
	rms := v.(*runtimeModules)
	rms.mu.Lock()
	if _, dup := rms.byName[m.Name()]; dup {
		rms.mu.Unlock()
		return fmt.Errorf("modules: %q already installed on this runtime", m.Name())
	}
	rms.byName[m.Name()] = m
	rms.ordered = append(rms.ordered, m)
	rms.mu.Unlock()

	if err := m.Init(rt); err != nil {
		rms.mu.Lock()
		delete(rms.byName, m.Name())
		rms.ordered = rms.ordered[:len(rms.ordered)-1]
		rms.mu.Unlock()
		return fmt.Errorf("modules: init %q: %w", m.Name(), err)
	}
	rt.RegisterFinalizer(m.Finalize)
	return nil
}

// MustInstall is Install that panics on error, for program setup paths.
func MustInstall(rt *core.Runtime, m Module) {
	if err := Install(rt, m); err != nil {
		panic(err)
	}
}

// Installed returns the module with the given name installed on rt, or nil.
// Modules use this to discover peers they can integrate with.
func Installed(rt *core.Runtime, name string) Module {
	v, ok := registry.Load(rt)
	if !ok {
		return nil
	}
	rms := v.(*runtimeModules)
	rms.mu.Lock()
	defer rms.mu.Unlock()
	return rms.byName[name]
}

// Names returns the names of all modules installed on rt in install order.
func Names(rt *core.Runtime) []string {
	v, ok := registry.Load(rt)
	if !ok {
		return nil
	}
	rms := v.(*runtimeModules)
	rms.mu.Lock()
	defer rms.mu.Unlock()
	out := make([]string, len(rms.ordered))
	for i, m := range rms.ordered {
		out[i] = m.Name()
	}
	return out
}

// Timed wraps a module API call with the per-module statistics hooks the
// runtime exposes for tooling: time spent in calls to different modules is
// recorded and can be reported with stats.Report.
func Timed[T any](moduleName, api string, fn func() T) T {
	defer stats.Track(moduleName, api)()
	return fn()
}

// TimedVoid is Timed for APIs with no result.
func TimedVoid(moduleName, api string, fn func()) {
	defer stats.Track(moduleName, api)()
	fn()
}
