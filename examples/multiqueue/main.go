// Multi-queue adaptation (Sec. 4.5.2): two traffic classes ride separate
// data queues on every switch port, and one PET controller per class tunes
// each queue's ECN thresholds independently. Built directly on the
// low-level engine/network/transport API.
//
//	go run ./examples/multiqueue
package main

import (
	"fmt"

	"pet"
)

func main() {
	fmt.Println("Multi-queue PET — class 0 (latency-leaning) vs class 1 (throughput-leaning)")
	fmt.Println()

	eng := pet.NewEngine()
	ls := pet.BuildLeafSpine(pet.TinyScale())
	net := pet.NewNetwork(eng, ls, 42, pet.NetworkConfig{
		DataQueues:     2,
		BufferPerQueue: 4 << 20,
	})
	tr := pet.NewTransport(net, pet.TransportConfig{})

	// One controller per class with the paper's two reward weightings.
	ctl0 := pet.NewController(net, pet.ControllerConfig{AgentConfig: pet.AgentConfig{
		Alpha: 2, Class: 0, Train: true, Beta1: 0.3, Beta2: 0.7,
		Interval: 100 * pet.Microsecond, Seed: 1,
	}})
	ctl1 := pet.NewController(net, pet.ControllerConfig{AgentConfig: pet.AgentConfig{
		Alpha: 2, Class: 1, Train: true, Beta1: 0.7, Beta2: 0.3,
		Interval: 100 * pet.Microsecond, Seed: 2,
	}})
	ctl0.Start()
	ctl1.Start()

	// Class 0 carries query-like mice; class 1 carries bulk elephants,
	// driven manually so the class split is explicit.
	var miceDone, bulkDone int
	var miceFCT, bulkFCT pet.Time
	tr.OnFlowComplete(func(f *pet.Flow) {
		if f.Class == 0 {
			miceDone++
			miceFCT += f.FCT()
		} else {
			bulkDone++
			bulkFCT += f.FCT()
		}
	})
	for i := 0; i < 60; i++ {
		src := ls.Hosts[i%len(ls.Hosts)]
		dst := ls.Hosts[(i+3)%len(ls.Hosts)]
		if src == dst {
			continue
		}
		at := pet.Time(i) * pet.Millisecond
		eng.At(at, func() { tr.StartFlow(src, dst, 50_000, 0) }) // mice, class 0
		if i%4 == 0 {
			eng.At(at, func() { tr.StartFlow(src, dst, 4<<20, 1) }) // bulk, class 1
		}
	}
	eng.RunUntil(200 * pet.Millisecond)

	fmt.Printf("class 0 (mice):  %d flows, avg FCT %v\n", miceDone, miceFCT/pet.Time(max(1, miceDone)))
	fmt.Printf("class 1 (bulk):  %d flows, avg FCT %v\n", bulkDone, bulkFCT/pet.Time(max(1, bulkDone)))
	fmt.Println()

	p := net.SwitchPorts()[0]
	e0, e1 := p.ECN(0), p.ECN(1)
	fmt.Printf("per-class ECN on one port after training:\n")
	fmt.Printf("  class 0: Kmin=%dKB Kmax=%dKB Pmax=%.0f%%\n", e0.KminBytes>>10, e0.KmaxBytes>>10, e0.Pmax*100)
	fmt.Printf("  class 1: Kmin=%dKB Kmax=%dKB Pmax=%.0f%%\n", e1.KminBytes>>10, e1.KmaxBytes>>10, e1.Pmax*100)
	fmt.Println("\nThe two classes converge to different configurations because their")
	fmt.Println("reward weightings (β1/β2) encode different service objectives.")
}
