package network_test

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/network"
)

// ExampleTransport wires two endpoints and delivers a message.
func ExampleTransport() {
	// The caller is an actor on the virtual clock, as every sender is.
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
	fmt.Printf("%s -> %s: %v\n", m.From, m.To, m.Payload)
	// Output:
	// node-a -> node-b: hello
}

// ExamplePaperNetem reproduces the paper's latency emulation and verifies
// its statistical parameters.
func ExamplePaperNetem() {
	model := network.PaperNetem(42)
	stats := network.MeasureLatency(model, 50000)
	fmt.Printf("mean within 1ms of 12ms: %v\n",
		stats.Mean > 11*time.Millisecond && stats.Mean < 13*time.Millisecond)
	fmt.Printf("sigma within 0.5ms of 2ms: %v\n",
		stats.Std > 1500*time.Microsecond && stats.Std < 2500*time.Microsecond)
	// Output:
	// mean within 1ms of 12ms: true
	// sigma within 0.5ms of 2ms: true
}
