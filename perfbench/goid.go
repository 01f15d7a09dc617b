package main

import "runtime"

// goroutineKey identifies the calling goroutine, so spans can nest per
// goroutine. Where the architecture has a getg stub it is one load;
// elsewhere it parses the goroutine id from the first line of a stack
// trace ("goroutine 17 [running]:"), which is slow because the runtime
// formats the whole trace, so traced runs there report larger overheads.
var goroutineKey = stackGoroutineKey

func stackGoroutineKey() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = "goroutine "
	var id uint64
	for _, c := range b[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
