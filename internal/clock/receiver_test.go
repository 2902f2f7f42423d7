package clock

import (
	"sync"
	"testing"
	"time"
)

// envelope has the shape of the messages the engines receive: too large and
// too pointerful for any small-value boxing shortcut.
type envelope struct {
	From, To, Kind string
	Payload        any
	SentAt         time.Time
}

// TestReceiverAllocatesNothing: send → Await → typed receive costs no heap
// object on AutoVirtual, on both ways an element reaches its variable — the
// awaiting actor finding it buffered, and the scheduler consuming it for a
// parked actor before the grant.
func TestReceiverAllocatesNothing(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "meter")
	defer h.Close()

	ping, pong := NewMailbox[envelope](av, 1), NewMailbox[envelope](av, 1)
	stop := NewGate(av)
	var wg sync.WaitGroup
	wg.Add(1)
	Fork(av, 1)
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "echo")
		defer h.Close()
		var in envelope
		src := ping.Receiver(&in)
		for {
			if idx, _, _ := Await(av, stop, src); idx == 0 { // parked: the scheduler fills in
				return
			}
			in.From, in.To = in.To, in.From
			pong.Send(in, stop)
		}
	}()
	payload := any(&struct{ n int }{7})
	out := envelope{From: "meter", To: "echo", Kind: "probe", Payload: payload}
	var back envelope
	src := pong.Receiver(&back)
	round := func() {
		ping.Send(out, nil)
		if _, v, ok := Await(av, src); !ok || v != nil || back.From != "echo" || back.Payload != payload {
			t.Fatalf("round trip returned %+v (value %v, ok %v)", back, v, ok)
		}
		back = envelope{}
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("typed mailbox round trip allocates %v times, want 0", n)
	}

	// Buffered before the Await: the caller consumes it itself.
	self := NewMailbox[envelope](av, 1)
	var got envelope
	selfSrc := self.Receiver(&got)
	if n := testing.AllocsPerRun(200, func() {
		self.TrySend(out)
		if _, _, ok := Await(av, selfSrc); !ok || got.Kind != "probe" {
			t.Fatalf("received %+v (ok %v)", got, ok)
		}
	}); n != 0 {
		t.Errorf("TrySend + typed Await allocates %v times, want 0", n)
	}

	stop.Close()
	av.Sleep(time.Millisecond) // park so echo can observe the stop and leave
	wg.Wait()
}

// TestReceiverOnEveryClock: the typed receive delivers every element exactly
// once into the variable of the consumer that took it, and a closed, drained
// mailbox stores the zero element with ok false — on the channel-backed
// mailbox of Real (several consumers racing on one channel, each with its
// own Receiver; run under -race) as on AutoVirtual,
// where the consumers are parked when the elements arrive.
func TestReceiverOnEveryClock(t *testing.T) {
	const consumers, elements = 4, 200
	for name, clk := range map[string]Clock{"real": New(), "auto": NewAutoVirtual()} {
		t.Run(name, func(t *testing.T) {
			m := NewMailbox[envelope](clk, 8)
			seen := make([][]int, consumers)
			var wg sync.WaitGroup
			Fork(clk, consumers+1)
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					h := RegisterForked(clk, "consumer-"+string(rune('a'+c)))
					defer h.Close()
					in := envelope{Kind: "stale"}
					src := m.Receiver(&in)
					for {
						_, v, ok := Await(clk, src)
						if v != nil {
							t.Errorf("Await returned %v beside the typed element", v)
						}
						if !ok {
							if in != (envelope{}) {
								t.Errorf("closed, drained mailbox stored %+v, want the zero element", in)
							}
							return
						}
						seen[c] = append(seen[c], in.Payload.(int))
					}
				}(c)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := RegisterForked(clk, "producer")
				defer h.Close()
				for i := 0; i < elements; i++ {
					m.Send(envelope{Kind: "n", Payload: i}, nil)
				}
				m.Close()
			}()
			wg.Wait()
			count := make([]int, elements)
			for _, s := range seen {
				for _, i := range s {
					count[i]++
				}
			}
			for i, n := range count {
				if n != 1 {
					t.Fatalf("element %d was received %d times, want once", i, n)
				}
			}
		})
	}
}
