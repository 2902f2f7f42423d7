package network_test

import (
	"fmt"
	"math"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/network"
)

// ExampleTransport wires two endpoints and delivers a message.
func ExampleTransport() {
	// The caller registers on the virtual clock, as the runner does.
	clk := clock.NewAutoVirtual()
	h := clock.Register(clk, "example")
	defer h.Close()
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()

	var m network.Message
	tr.Register("node-b", func(got network.Message) { m = got })

	if err := tr.Send("node-a", "node-b", "ping", "hello"); err != nil {
		fmt.Println("error:", err)
		return
	}
	clk.Sleep(time.Millisecond) // the delivery runs while the sender sleeps
	fmt.Printf("node-b got %v from %s\n", m.Payload, m.From)
	// Output:
	// node-b got hello from node-a
}

// ExampleNewNormalLatency reproduces the paper's latency emulation (§5.8.1:
// mu = 12 ms, sigma = 2 ms on every link) and checks its parameters.
func ExampleNewNormalLatency() {
	model := network.NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 42)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		d := float64(model.Delay("a", "b"))
		sum += d
		sq += d * d
	}
	mean := time.Duration(sum / n)
	sigma := time.Duration(math.Sqrt(sq/n - (sum/n)*(sum/n)))
	fmt.Printf("mean within 1ms of 12ms: %v\n", mean > 11*time.Millisecond && mean < 13*time.Millisecond)
	fmt.Printf("sigma within 0.5ms of 2ms: %v\n", sigma > 1500*time.Microsecond && sigma < 2500*time.Microsecond)
	// Output:
	// mean within 1ms of 12ms: true
	// sigma within 0.5ms of 2ms: true
}
