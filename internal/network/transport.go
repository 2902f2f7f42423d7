package network

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/trace"
)

// Message is a unit of delivery between endpoints. Payload is an opaque
// value; systems define their own message types.
type Message struct {
	From    string
	Payload any
}

// Handler receives delivered messages. Handlers run inside the transport's
// delivery events (clock.Event) and must not sleep.
type Handler func(Message)

// Errors returned by Transport operations.
var (
	ErrUnknownEndpoint = errors.New("network: unknown endpoint")
	ErrStopped         = errors.New("network: transport stopped")
)

// Transport is the in-process message fabric. Delivery is driven by one
// queue (see delivery.go): Send computes a ready time from the
// latency model plus any link degradation, clamps it so messages on the same
// directed link never reorder (TCP's per-connection FIFO property the real
// deployments rely on), and enqueues the message: on a ready list when it is
// due at once, in a heap by ready time otherwise. One clock event drains due
// messages in timestamp order.
//
// Only the clock's event loop touches the transport, so it takes no
// lock: topology and fault state, the per-link state (the FIFO
// clamp, a seeded loss RNG), the queue and the counters change one send at
// a time, and handlers may send. What orders messages is therefore the
// same on every host.
type Transport struct {
	clk     *clock.AutoVirtual
	latency LatencyModel
	t0      time.Time // queue epoch; ready times are nanoseconds since t0
	seed    int64     // base seed for the per-link loss RNGs

	stopped   bool
	endpoints map[string]*endpoint
	list      []*endpoint // sorted by name: deterministic broadcast fan-out
	degraded  map[linkKey]Degradation
	links     map[linkKey]*linkState
	queue     queue
	// tracer, when set, records sampled network-hop spans (one per scheduled
	// delivery, per-link ordinal sampling) under the Perfetto process row
	// traceProc (the owning system's name).
	tracer    *trace.Tracer
	traceProc string

	sent, delivered, dropped, lost uint64

	// deliver runs drain. It keeps the name the first of the former per-shard
	// events had, "net/shard-0": the clock breaks same-instant ties by
	// (deadline, name, sequence), so a rename would reorder deliveries against
	// pacers and timers and move every seeded result.
	deliver *clock.Event
	batch   []*item // drain's scratch, reused across runs
}

// linkKey names one directed link.
type linkKey struct{ src, dst string }

// Degradation models a lossy, slow link: every message gains Extra one-way
// delay on top of the latency model, and is silently lost with probability
// Loss (the sender still sees a successful send, as with a real network).
type Degradation struct {
	Extra time.Duration
	Loss  float64
}

// endpoint is one registered delivery target.
// Unregistering clears the handler, which is how messages still queued for
// the endpoint come to be dropped; pending is its queue occupancy.
type endpoint struct {
	name    string
	handler Handler
	pending int
}

// endpointQueueDepth bounds the per-endpoint in-flight queue. It is sized to
// absorb the largest burst the benchmarks generate; a full queue drops the
// message (counted), modeling kernel socket-buffer exhaustion.
const endpointQueueDepth = 65536

// NewTransport creates a fabric timed by clk, which is required, with the
// given latency model. A nil model defaults to ZeroLatency.
func NewTransport(clk *clock.AutoVirtual, latency LatencyModel) *Transport {
	if clk == nil {
		panic("network: NewTransport needs a clock")
	}
	if latency == nil {
		latency = ZeroLatency{}
	}
	t := &Transport{
		clk:       clk,
		latency:   latency,
		t0:        clk.Now(),
		seed:      0x10551, // deterministic loss draws
		endpoints: make(map[string]*endpoint),
		degraded:  make(map[linkKey]Degradation),
		links:     make(map[linkKey]*linkState),
		queue:     queue{wakeAt: math.MaxInt64},
	}
	t.deliver = clock.NewEvent(clk, "net/shard-0", t.drain)
	return t
}

func (t *Transport) nowNanos() int64 { return int64(t.clk.Now().Sub(t.t0)) }

// SetTracer attaches a span sink: sampled hops record one "net" span whose
// extent is the message's exact scheduled flight time (latency model plus
// degradation plus the FIFO clamp). Sampling is by per-link message
// ordinal mixed with the link hash, so it is deterministic under the
// virtual clock. A nil tracer detaches.
func (t *Transport) SetTracer(tr *trace.Tracer, proc string) {
	t.tracer, t.traceProc = tr, proc
}

// PendingCount reports messages scheduled but not yet delivered, summed
// over every endpoint's queue — the delivery queue's in-flight backlog, and
// the telemetry plane's netPending gauge.
func (t *Transport) PendingCount() int64 {
	var n int64
	for _, ep := range t.list {
		n += int64(ep.pending)
	}
	return n
}

// find returns the position of name in the sorted endpoint list, or where it
// would be inserted.
func (t *Transport) find(name string) int {
	i, _ := slices.BinarySearchFunc(t.list, name, func(ep *endpoint, name string) int {
		return strings.Compare(ep.name, name)
	})
	return i
}

// Register attaches a named endpoint with a message handler. Registering
// the same name twice replaces the handler.
func (t *Transport) Register(name string, h Handler) {
	if t.stopped {
		return
	}
	if ep, ok := t.endpoints[name]; ok {
		ep.handler = h
		return
	}
	ep := &endpoint{name: name, handler: h}
	t.endpoints[name] = ep
	t.list = slices.Insert(t.list, t.find(name), ep)
}

// Unregister detaches an endpoint; queued messages for it are dropped.
func (t *Transport) Unregister(name string) {
	ep, ok := t.endpoints[name]
	if !ok {
		return
	}
	ep.handler = nil
	delete(t.endpoints, name)
	i := t.find(name)
	t.list = slices.Delete(t.list, i, i+1)
}

// Endpoints returns the names of all registered endpoints, sorted.
func (t *Transport) Endpoints() []string {
	names := make([]string, 0, len(t.list))
	for _, ep := range t.list {
		names = append(names, ep.name)
	}
	return names
}

// Send schedules delivery of a message. It returns an error when the
// destination is unknown or the transport is stopped.
func (t *Transport) Send(from, to, kind string, payload any) error {
	ep, ok := t.endpoints[to]
	switch {
	case t.stopped:
		return ErrStopped
	case !ok:
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, to)
	}
	wake, err := t.schedule(from, ep, kind, payload, t.clk.Now())
	if wake {
		t.deliver.Trigger()
	}
	return err
}

// schedule enqueues one message and reports whether the delivery event
// must be triggered.
func (t *Transport) schedule(from string, ep *endpoint, kind string, payload any, now time.Time) (wake bool, err error) {
	to := ep.name
	lk := linkKey{from, to}
	deg, isDegraded := t.degraded[lk]

	delay := t.latency.Delay(from, to)
	if isDegraded {
		delay += deg.Extra
	}
	nowN := int64(now.Sub(t.t0))
	readyN := nowN
	if delay > 0 {
		readyN += int64(delay)
	}

	// Per-link FIFO clamp and loss draw.
	ls := t.links[lk]
	if ls == nil {
		ls = &linkState{}
		t.links[lk] = ls
	}
	if readyN < ls.lastReady {
		readyN = ls.lastReady
	}
	ls.lastReady = readyN
	lost := false
	if isDegraded && deg.Loss > 0 {
		if ls.rng == nil {
			ls.rng = rand.New(rand.NewSource(linkSeed(t.seed, from, to)))
		}
		lost = ls.rng.Float64() < deg.Loss
	}
	if t.tracer != nil {
		hopN := ls.hops
		ls.hops++
		// The ordinal decides membership; the link hash decorrelates the
		// sampled ordinals across links.
		if !lost && t.tracer.Sampled(hopN^fnvAdd(fnvAdd(fnvOffset64, from), to)) {
			startN := now.UnixNano()
			t.tracer.Add(trace.Span{
				Name:  kind,
				Cat:   "net",
				Proc:  t.traceProc,
				Lane:  from + "→" + to,
				Start: startN,
				End:   startN + (readyN - nowN),
			})
		}
	}

	t.sent++
	if lost {
		// Lossy link: the message vanishes in flight. The sender sees a
		// successful send, as it would on a real network.
		t.dropped++
		t.lost++
		return false, nil
	}
	if ep.pending >= endpointQueueDepth {
		t.dropped++
		return false, fmt.Errorf("network: endpoint %q queue full", to)
	}
	ep.pending++
	it := itemPool.Get().(*item)
	it.msg = Message{From: from, Payload: payload}
	it.ep = ep
	it.readyNanos = readyN
	return t.queue.enqueue(it, nowN), nil
}

// Broadcast sends to every registered endpoint except the sender, in
// sorted-name order, returning the number of successful sends. The
// delivery event is triggered once, after the whole fan-out.
func (t *Transport) Broadcast(from, kind string, payload any) int {
	now := t.clk.Now()
	n, wake := 0, false
	for _, ep := range t.list {
		if ep.name == from {
			continue
		}
		w, err := t.schedule(from, ep, kind, payload, now)
		wake = wake || w
		if err == nil {
			n++
		}
	}
	if wake {
		t.deliver.Trigger()
	}
	return n
}

// HealAll clears every link degradation in one step, restoring the
// pristine fabric.
func (t *Transport) HealAll() {
	clear(t.degraded)
}

// DegradeLink makes the directed link src→dst slow and lossy: subsequent
// messages gain extra one-way delay and are lost with probability loss
// (clamped to [0, 1]). A zero Degradation restores the link; HealAll clears
// every degradation.
func (t *Transport) DegradeLink(src, dst string, extra time.Duration, loss float64) {
	loss = min(max(loss, 0), 1)
	if extra <= 0 && loss == 0 {
		delete(t.degraded, linkKey{src, dst})
	} else if !t.stopped {
		t.degraded[linkKey{src, dst}] = Degradation{Extra: extra, Loss: loss}
	}
}

// DegradedCount reports how many directed links carry a degradation.
func (t *Transport) DegradedCount() int {
	return len(t.degraded)
}

// LostCount reports messages lost to link degradation (a subset of the
// dropped counter in Stats).
func (t *Transport) LostCount() uint64 {
	return t.lost
}

// Stats reports the send/delivery counters.
func (t *Transport) Stats() (sent, delivered, dropped uint64) {
	return t.sent, t.delivered, t.dropped
}

// Stop shuts down the delivery event, returning once no handler is running.
// Queued messages are dropped (uncounted), matching a fabric torn down
// mid-flight; topology and fault state are cleared and stay empty.
func (t *Transport) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	for _, ep := range t.list {
		ep.handler = nil
	}
	clear(t.endpoints)
	t.list = nil
	clear(t.degraded)
	t.deliver.Stop()
}
