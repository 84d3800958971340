package main

import (
	"container/heap"
	"slices"
	"time"
)

// referenceCalS is what calibrate takes on the reference 2-CPU host when
// it is quiet. Timing metrics are reported in reference seconds: host
// seconds times referenceCalS over the set's median calibration time.
// That host is shared, and its speed drifts by tens of percent over
// minutes; the scale cancels most of the drift, so two sets on one
// commit agree within the bounds.
const referenceCalS = 0.125

// calibrate times a fixed amount of work that shares no code with the
// simulator and returns its seconds. Its two halves resemble the two
// kinds of work a pass does: hashing, sorting and random memory traffic,
// and a small discrete-event simulation over a pointer heap. The parent
// process runs it after every pass, so it samples the host's speed over
// the same minutes as the passes and never shares a heap with a
// simulation: a change to the simulator cannot change it. It runs on one
// thread for every workload; two concurrent copies tracked the
// two-thread workloads worse.
func calibrate() float64 {
	start := time.Now()
	x := uint32(12345)
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x >> 8
	}

	m := make(map[uint32]uint32)
	for i := 0; i < 100_000; i++ {
		m[next()] = uint32(i)
	}
	hits := 0
	for i := 0; i < 100_000; i++ {
		if _, ok := m[next()]; ok {
			hits++
		}
	}
	xs := make([]uint32, 200_000)
	for i := range xs {
		xs[i] = next()
	}
	slices.Sort(xs)
	table := make([]uint32, 1<<20)
	for i := 0; i < 2_000_000; i++ {
		j := next() & uint32(len(table)-1)
		table[j] += x
		x ^= table[(j*7)&uint32(len(table)-1)]
	}

	nodes := make([]calNode, 1024)
	for i := range nodes {
		for k, d := range []int{1, -1, 32, -32} {
			nodes[i].nbrs[k] = int32((i + d + len(nodes)) % len(nodes))
		}
	}
	q := &calQueue{}
	for i := 0; i < 2048; i++ {
		heap.Push(q, &calEvent{at: int64(next() % 100), node: int32(next() % 1024)})
	}
	for i := 0; i < 400_000; i++ {
		ev := heap.Pop(q).(*calEvent)
		n := &nodes[ev.node]
		n.total += ev.at
		if len(n.msgs) < 64 {
			n.msgs = append(n.msgs, ev.at)
		} else {
			n.msgs = n.msgs[:0]
		}
		ev.node = n.nbrs[next()%4]
		ev.at += int64(1 + next()%20)
		heap.Push(q, ev)
	}

	sink += hits + int(xs[len(xs)/2]) + int(x) + int(nodes[0].total)
	return time.Since(start).Seconds()
}

type calNode struct {
	nbrs  [4]int32
	msgs  []int64
	total int64
}

type calEvent struct {
	at   int64
	node int32
}

// calQueue is a min-heap of events by time (container/heap).
type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}
