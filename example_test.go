package pet_test

import (
	"fmt"

	"pet"
)

// ExampleRun shows the one-call experiment API: run a PET-controlled
// scenario and read its FCT buckets.
func ExampleRun() {
	res, err := pet.Run(pet.Scenario{
		Scheme:   pet.SchemePET,
		Train:    true,
		Load:     0.5,
		Warmup:   10 * pet.Millisecond,
		Duration: 20 * pet.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("flows: %v, mice avg slowdown > 1: %v\n",
		res.FlowsDone > 0, res.MiceBkt.AvgSlowdown >= 1)
	// Output: flows: true, mice avg slowdown > 1: true
}

// ExampleNewController shows the low-level wiring: engine, fabric,
// transport, and a PET controller tuning every switch.
func ExampleNewController() {
	eng := pet.NewEngine()
	fabric := pet.BuildLeafSpine(pet.TinyScale())
	net := pet.NewNetwork(eng, fabric, 42, pet.NetworkConfig{BufferPerQueue: 4 << 20})
	tr := pet.NewTransport(net, pet.TransportConfig{})
	ctl := pet.NewController(net, pet.ControllerConfig{AgentConfig: pet.AgentConfig{
		Alpha:    2,
		Train:    true,
		Interval: 100 * pet.Microsecond,
	}})
	ctl.Start()

	tr.StartFlow(fabric.Hosts[0], fabric.Hosts[3], 100_000, 0)
	eng.RunUntil(10 * pet.Millisecond)
	fmt.Println("agents:", len(ctl.Agents()))
	// Output: agents: 4
}

// ExampleNewRunner regenerates one of the paper's exhibits.
func ExampleNewRunner() {
	r := pet.NewRunner()
	table := r.Fig3() // the workload CDFs; instant, no simulation
	fmt.Println(len(table.Rows) > 0)
	// Output: true
}
