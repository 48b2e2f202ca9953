package main

import (
	"container/heap"
	"time"
)

// controlRef is the control's time on the reference host that the
// des_day figures are scaled to: about what it takes on an idle
// 2-vCPU VM.
const controlRef = 150 * time.Millisecond

// controlSink keeps the control work observable so the compiler
// cannot drop it.
var controlSink uint64

type ctlEvent struct {
	at  uint64
	key uint32
}

type ctlHeap []ctlEvent

func (h ctlHeap) Len() int           { return len(h) }
func (h ctlHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h ctlHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ctlHeap) Push(x any)        { *h = append(*h, x.(ctlEvent)) }
func (h *ctlHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// controlWork runs a fixed event-driven computation that uses no code
// of the repository — a binary-heap event queue, map updates and small
// allocations, the shape of the simulator's inner loop — and returns
// the wall and CPU time it took. Timed next to a simulator pass, it
// says how fast the host ran the same kind of work at that moment.
func controlWork() (wall, cpu time.Duration) {
	w0, c0 := time.Now(), cpuTime()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make(ctlHeap, 0, 1<<12)
	for i := 0; i < 1<<12; i++ {
		heap.Push(&h, ctlEvent{at: next() % 1_000_000, key: uint32(next())})
	}
	m := make(map[uint32]uint64, 1<<13)
	for i := 0; i < 300_000; i++ {
		e := heap.Pop(&h).(ctlEvent)
		m[e.key&(1<<13-1)] += e.at
		buf := make([]byte, 32+e.key%64)
		controlSink += uint64(len(buf))
		heap.Push(&h, ctlEvent{at: e.at + next()%1000, key: uint32(next())})
	}
	controlSink += m[uint32(x)&(1<<13-1)]
	return time.Since(w0), cpuTime() - c0
}
