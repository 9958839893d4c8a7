// Quickstart: build a 4-node Shasta cluster, share memory between
// processes on different nodes, and watch the fine-grained coherence
// protocol work.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	// A cluster of four 4-CPU SMP nodes (the paper's prototype), built
	// with the functional-options API.
	sys := core.Build(
		core.WithProcs(4, 4),
		core.WithVariant(core.SMPShasta()),
		core.WithMaxTime(sim.Cycles(60e6)),
	)
	cfg := sys.Cfg

	var data uint64 // shared array address
	ready := false

	// A producer on node 0 writes 64 words.
	producer := sys.Spawn("producer", 0, func(p *core.Proc) {
		data = sys.Alloc(64*8, core.AllocOptions{Home: core.HomeAt(0)})
		for i := 0; i < 64; i++ {
			p.Store(data+uint64(i*8), uint64(i*i))
		}
		p.MemBar() // make the writes visible (Alpha memory model)
		ready = true
		// Keep serving coherence requests until the consumer finishes.
		for !sys.Proc(1).Exited() {
			p.Compute(1000)
		}
	})

	// A consumer on node 1 (CPU 4) reads them; every load runs the same
	// in-line miss check Shasta inserts into binaries, and misses are
	// satisfied by the directory protocol over the Memory Channel.
	consumer := sys.Spawn("consumer", cfg.CPUsPerNode, func(p *core.Proc) {
		for !ready {
			p.Compute(1000)
		}
		var sum uint64
		for i := 0; i < 64; i++ {
			sum += p.Load(data + uint64(i*8))
		}
		fmt.Printf("consumer read sum = %d (expected %d)\n", sum, sumSquares(63))
	})

	if err := sys.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("producer: %d stores, %d write misses\n",
		producer.Stats().Stores(), producer.Stats().WriteMisses())
	fmt.Printf("consumer: %d loads, %d remote read misses (%d lines fetched over the wire)\n",
		consumer.Stats().Loads(), consumer.Stats().ReadMisses(), consumer.Stats().ReadMisses())
	fmt.Printf("network: %d messages, %d bytes\n",
		sys.Net.Stats().Messages, sys.Net.Stats().Bytes)
}

func sumSquares(n int) (s uint64) {
	for i := 0; i <= n; i++ {
		s += uint64(i * i)
	}
	return
}
