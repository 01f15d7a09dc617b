//go:build amd64 || arm64

package main

// getg returns the address of the running goroutine's runtime
// descriptor (getg_*.s). Descriptors do not move, and no two live
// goroutines share one, so it keys per-goroutine span stacks at the cost
// of one load.
func getg() uintptr

func init() { goroutineKey = func() uint64 { return uint64(getg()) } }
