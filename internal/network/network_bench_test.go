package network

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

func BenchmarkTransportSendDeliver(b *testing.B) {
	clk := clocktest.New(b)
	tr := NewTransport(clk, nil)
	defer tr.Stop()
	delivered := 0
	tr.Register("sink", func(Message) { delivered++ })
	payload := &benchPayload{seq: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A full queue models socket-buffer exhaustion; a real sender
		// blocks on the socket, so apply backpressure: the sender's sleep
		// lets the delivery event drain the queue.
		for tr.Send("src", "sink", "bench", payload) != nil {
			clk.Sleep(time.Microsecond)
		}
	}
	clocktest.Until(b, clk, time.Hour, "every send delivered", func() bool { return delivered == b.N })
}

// benchPayload mimics what the drivers actually put on the wire: a pointer
// to a message struct, not a boxed scalar.
type benchPayload struct{ seq uint64 }

func BenchmarkTransportBroadcast(b *testing.B) {
	clk := clocktest.New(b)
	tr := NewTransport(clk, nil)
	defer tr.Stop()
	delivered := 0
	for _, name := range []string{"n1", "n2", "n3", "n4"} {
		tr.Register(name, func(Message) { delivered++ })
	}
	payload := &benchPayload{seq: 1}
	want := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Under sustained overload a send can hit a full queue (kernel
		// buffer exhaustion); count only what was actually scheduled.
		want += tr.Broadcast("src", "bench", payload)
		if i%1024 == 1023 {
			clk.Sleep(time.Microsecond) // let the delivery event drain
		}
	}
	clocktest.Until(b, clk, time.Hour, "every scheduled copy delivered", func() bool { return delivered == want })
}

func BenchmarkNormalLatencyDraw(b *testing.B) {
	m := NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Delay("a", "b")
	}
}
