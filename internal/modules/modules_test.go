package modules

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// newRT builds a 1-worker runtime. This in-package test cannot use the
// hiper facade (hiper imports modules), so it goes through core.New.
func newRT() *core.Runtime {
	rt, err := core.New(platform.Default(1), nil)
	if err != nil {
		panic(err)
	}
	return rt
}

type fakeModule struct {
	name      string
	initErr   error
	inited    int
	finalized int
}

func (m *fakeModule) Name() string             { return m.name }
func (m *fakeModule) Init(*core.Runtime) error { m.inited++; return m.initErr }
func (m *fakeModule) Finalize()                { m.finalized++ }

func TestInstallLifecycle(t *testing.T) {
	rt := newRT()
	m := &fakeModule{name: "fake"}
	if err := Install(rt, m); err != nil {
		t.Fatal(err)
	}
	if m.inited != 1 {
		t.Fatal("Init not called")
	}
	if got := Installed(rt, "fake"); got != m {
		t.Fatal("Installed lookup failed")
	}
	if Installed(rt, "missing") != nil {
		t.Fatal("missing module should be nil")
	}
	rt.Launch(func(c *core.Ctx) {})
	rt.Shutdown()
	if m.finalized != 1 {
		t.Fatalf("Finalize called %d times", m.finalized)
	}
}

func TestInstallDuplicateRejected(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	MustInstall(rt, &fakeModule{name: "dup"})
	if err := Install(rt, &fakeModule{name: "dup"}); err == nil {
		t.Fatal("duplicate install must fail")
	}
}

func TestInstallInitErrorRollsBack(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	bad := &fakeModule{name: "bad", initErr: errors.New("boom")}
	if err := Install(rt, bad); err == nil {
		t.Fatal("expected init error")
	}
	if Installed(rt, "bad") != nil {
		t.Fatal("failed module left registered")
	}
	// Name is free again after rollback.
	if err := Install(rt, &fakeModule{name: "bad"}); err != nil {
		t.Fatalf("reinstall after rollback: %v", err)
	}
}

func TestNamesOrdered(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	MustInstall(rt, &fakeModule{name: "a"})
	MustInstall(rt, &fakeModule{name: "b"})
	got := Names(rt)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names = %v", got)
	}
	if Names(newRT()) != nil {
		t.Fatal("fresh runtime should have no modules")
	}
}

func TestMustInstallPanics(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("MustInstall must panic on error")
		}
	}()
	MustInstall(rt, &fakeModule{name: "x", initErr: errors.New("no")})
}

func TestTimedHelpers(t *testing.T) {
	got := Timed("tmod", "api", func() int { return 41 })
	if got != 41 {
		t.Fatalf("Timed = %d", got)
	}
	ran := false
	TimedVoid("tmod", "api2", func() { ran = true })
	if !ran {
		t.Fatal("TimedVoid did not run fn")
	}
}

func TestFinalizeOrderAcrossModules(t *testing.T) {
	rt := newRT()
	var order []string
	a := &orderModule{name: "a", order: &order}
	b := &orderModule{name: "b", order: &order}
	MustInstall(rt, a)
	MustInstall(rt, b)
	rt.Launch(func(c *core.Ctx) {})
	rt.Shutdown()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("finalize order = %v, want [b a] (LIFO)", order)
	}
}

type orderModule struct {
	name  string
	order *[]string
}

func (m *orderModule) Name() string             { return m.name }
func (m *orderModule) Init(*core.Runtime) error { return nil }
func (m *orderModule) Finalize()                { *m.order = append(*m.order, m.name) }

func TestShutdownReleasesRegistryEntry(t *testing.T) {
	rt := newRT()
	MustInstall(rt, &fakeModule{name: "a"})
	rt.Launch(func(c *core.Ctx) {})
	rt.Shutdown()
	if got := Names(rt); got != nil {
		t.Fatalf("names after Shutdown = %v, want nil", got)
	}
	if _, ok := registry.Load(rt); ok {
		t.Fatal("registry still holds the shut-down runtime")
	}
}

func TestFinalizeSeesPeers(t *testing.T) {
	rt := newRT()
	var seen []string
	a := &peerModule{name: "a", peer: "b", rt: rt, seen: &seen}
	b := &peerModule{name: "b", peer: "a", rt: rt, seen: &seen}
	MustInstall(rt, a)
	MustInstall(rt, b)
	rt.Launch(func(c *core.Ctx) {})
	rt.Shutdown()
	if len(seen) != 2 || seen[0] != "b->a" || seen[1] != "a->b" {
		t.Fatalf("peers seen from Finalize = %v, want [b->a a->b]", seen)
	}
}

// peerModule records, at Finalize, whether its peer is still Installed.
type peerModule struct {
	name, peer string
	rt         *core.Runtime
	seen       *[]string
}

func (m *peerModule) Name() string             { return m.name }
func (m *peerModule) Init(*core.Runtime) error { return nil }
func (m *peerModule) Finalize() {
	if Installed(m.rt, m.peer) != nil {
		*m.seen = append(*m.seen, m.name+"->"+m.peer)
	}
}
