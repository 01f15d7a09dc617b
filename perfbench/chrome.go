package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/trace"
)

// chromeLog buffers the traced pass as Chrome trace-event records (the
// object form Perfetto loads): one track per goroutine that entered a
// rung, plus a bench track carrying one slice per solve. Records are
// appended under the recorder's lock in time order per track, so the
// B/E slices of each track nest.
type chromeLog struct {
	mu     sync.Mutex
	events []chromeEvent
	tracks map[int]string
	tids   map[uint64]int // goroutine key -> track
	max    int            // begin events accepted; later spans are counted, not kept
	capped int
}

// benchTrack is the track of the solve slices; goroutine tracks follow.
const benchTrack = 0

type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newChromeLog(max int) *chromeLog {
	return &chromeLog{tracks: map[int]string{benchTrack: "bench"}, tids: map[uint64]int{}, max: max}
}

// begin opens a slice; it reports false (and keeps nothing) once the
// log is full, so the matching end must then be skipped.
func (l *chromeLog) begin(name, cat string, ns int64, g uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.max <= 0 {
		l.capped++
		return false
	}
	l.max--
	l.events = append(l.events, chromeEvent{Name: name, Cat: cat, Ph: "B", TS: float64(ns) / 1e3, PID: 1, TID: l.tid(g)})
	return true
}

func (l *chromeLog) end(ns int64, g uint64) {
	l.mu.Lock()
	l.events = append(l.events, chromeEvent{Ph: "E", TS: float64(ns) / 1e3, PID: 1, TID: l.tid(g)})
	l.mu.Unlock()
}

// tid returns goroutine g's track, opening one on first use.
func (l *chromeLog) tid(g uint64) int {
	t, ok := l.tids[g]
	if !ok {
		t = len(l.tids) + 1
		l.tids[g] = t
		l.tracks[t] = fmt.Sprintf("goroutine %d", t)
	}
	return t
}

// slice records a complete slice on the bench track.
func (l *chromeLog) slice(name string, startNs, endNs int64, args map[string]any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events,
		chromeEvent{Name: name, Cat: "solve", Ph: "B", TS: float64(startNs) / 1e3, PID: 1, TID: benchTrack, Args: args},
		chromeEvent{Ph: "E", TS: float64(endNs) / 1e3, PID: 1, TID: benchTrack})
}

// encode renders the log, with thread-name metadata for every track,
// and checks it against trace.ValidateChrome.
func (l *chromeLog) encode() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tids := make([]int, 0, len(l.tracks))
	for tid := range l.tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	evs := make([]chromeEvent, 0, len(tids)+1+len(l.events))
	for _, tid := range tids {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": l.tracks[tid]}})
	}
	evs = append(evs, chromeEvent{Name: "spans_not_kept", Ph: "M", PID: 1,
		Args: map[string]any{"count": l.capped}})
	evs = append(evs, l.events...)
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
	if err != nil {
		return nil, err
	}
	if err := trace.ValidateChrome(data); err != nil {
		return nil, err
	}
	return data, nil
}

// write stores the validated log at path.
func (l *chromeLog) write(path string) error {
	data, err := l.encode()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
