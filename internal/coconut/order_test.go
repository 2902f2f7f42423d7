package coconut

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
)

// TestClientSendOrderUnderVirtualTime pins who sends what, and when: the
// (workload thread, generator index, send instant) sequence every model
// output downstream of the client was calibrated against. The first active
// thread sends at t=0 and again in the first paced slot; after that the
// threads take turns in the order of their names ("w1" < "w10" < "w2"),
// idle read threads are skipped, and nothing is sent at or after the instant
// the send window ends.
func TestClientSendOrderUnderVirtualTime(t *testing.T) {
	const window = 200 * time.Millisecond // 20 slots of 10ms
	for _, tc := range []struct {
		name    string
		threads int
		bench   BenchmarkName
		readMax []uint64
		want    string
	}{
		{
			name: "four threads", threads: 4, bench: BenchDoNothing,
			want: "[w0#0@0ms w0#1@10ms w1#0@20ms w2#0@30ms w3#0@40ms w0#2@50ms " +
				"w1#1@60ms w2#1@70ms w3#1@80ms w0#3@90ms w1#2@100ms w2#2@110ms]",
		},
		{
			name: "thread 0 idle", threads: 4, bench: BenchKeyValueGet, readMax: []uint64{0, 3, 3, 3},
			want: "[w1#0@0ms w1#1@10ms w2#0@20ms w3#0@30ms w1#2@40ms w2#1@50ms " +
				"w3#1@60ms w1#0@70ms w2#2@80ms w3#2@90ms w1#1@100ms w2#0@110ms]",
		},
		{
			name: "turns go by name", threads: 11, bench: BenchDoNothing,
			want: "[w0#0@0ms w0#1@10ms w1#0@20ms w10#0@30ms w2#0@40ms w3#0@50ms " +
				"w4#0@60ms w5#0@70ms w6#0@80ms w7#0@90ms w8#0@100ms w9#0@110ms]",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			av := clock.NewAutoVirtual()
			drv := newFakeDriver()
			cfg := RunConfig{RateLimit: 100, WorkloadThreads: tc.threads, SendDuration: window, ListenGrace: 10 * time.Millisecond}
			cfg.fill()
			var sentAt []time.Duration // each submission's instant, in order
			drv.confirm = func(*chain.Transaction) bool {
				sentAt = append(sentAt, av.Now().Sub(clock.SimEpoch))
				return true
			}
			cl := newClient(&cfg, av, drv, newTally(nil), testTable(), 0, 0, tc.bench, tc.readMax, func(thread int) OpGen {
				return func(i uint64) chain.Operation {
					return chain.Operation{IEL: "order", Function: "f", Args: []string{fmt.Sprintf("w%d#%d", thread, i)}}
				}
			})
			h := clock.Register(av, "coconut-runner") // the runner drives the phase
			drive(av, &cfg, []*Client{cl})
			h.Close()

			var got []string
			for i, tx := range drv.submitted {
				at := sentAt[i]
				if at >= window {
					t.Fatalf("%s sent at +%v, at or after the end of the %v send window", tx.Ops[0].Args[0], at, window)
				}
				got = append(got, fmt.Sprintf("%s@%dms", tx.Ops[0].Args[0], at.Milliseconds()))
			}
			if len(got) != 20 {
				t.Fatalf("%d sends in %v at one per 10ms, want 20: %v", len(got), window, got)
			}
			if s := fmt.Sprint(got[:12]); s != tc.want {
				t.Fatalf("first 12 sends:\n got %s\nwant %s", s, tc.want)
			}
			if n := av.PendingWaiters(); n != 0 {
				t.Fatalf("PendingWaiters = %d after the phase, want 0", n)
			}
		})
	}
}
