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

// Transport is the in-process message fabric. Every name it sees, as a
// sender or as an endpoint, is interned once as a Port: a dense id that
// lives as long as the transport. A port keeps its outgoing links in a
// slice indexed by destination id, so a send by port looks up no name.
// Delivery is driven by one queue (see delivery.go): a send computes a
// ready time from the latency model plus the link's degradation, clamps it
// so messages on the same directed link never reorder (TCP's
// per-connection FIFO property the real deployments rely on), and enqueues
// the message by value: on a ready list when it is due at once, in a heap
// by ready time otherwise. One clock event drains due messages in timestamp
// order.
//
// Only the clock's event loop touches the transport, so it takes no
// lock: topology and fault state, the per-link state (the FIFO
// clamp, a seeded loss RNG, the degradation), the queue and the counters
// change one send at a time, and handlers may send. What orders messages is
// therefore the same on every host.
type Transport struct {
	clk     *clock.AutoVirtual
	latency LatencyModel
	t0      time.Time // queue epoch; ready times are nanoseconds since t0
	seed    int64     // base seed for the per-link loss RNGs

	stopped  bool
	ports    map[string]*Port // every interned name; a port's id is its order of interning
	list     []*endpoint      // registered endpoints, sorted by name: deterministic broadcast fan-out
	degraded int              // links carrying a degradation
	queue    queue
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
}

// Port is a name interned by a transport: the sender or destination of
// Transport.SendPort. A port outlives its registrations, and so do its
// links: a node that re-registers after a crash resumes its links' FIFO
// clamp and loss stream.
type Port struct {
	name  string
	id    int
	ep    *endpoint   // the current registration; nil while unregistered
	links []linkState // outgoing links by destination id, grown on first use
}

// Degradation models a lossy, slow link: every message gains Extra one-way
// delay on top of the latency model, and is silently lost with probability
// Loss (the sender still sees a successful send, as with a real network).
type Degradation struct {
	Extra time.Duration
	Loss  float64
}

// endpoint is one registration of a port. Messages point at the
// registration they were sent to, not at the port: unregistering clears the
// handler, which is how messages still queued for it come to be dropped,
// even when the name registers again. pending is its queue occupancy.
type endpoint struct {
	port    *Port
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
		clk:     clk,
		latency: latency,
		t0:      clk.Now(),
		seed:    0x10551, // deterministic loss draws
		ports:   make(map[string]*Port),
		queue:   queue{wakeAt: math.MaxInt64},
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

// Port interns name, returning the same port for every call with it.
func (t *Transport) Port(name string) *Port {
	if p := t.ports[name]; p != nil {
		return p
	}
	p := &Port{name: name, id: len(t.ports)}
	t.ports[name] = p
	return p
}

// Ports interns each of names, in order.
func (t *Transport) Ports(names []string) []*Port {
	ps := make([]*Port, len(names))
	for i, name := range names {
		ps[i] = t.Port(name)
	}
	return ps
}

// link returns the state of the directed link from→to, growing from's
// table to every port interned so far when to is beyond it.
func (t *Transport) link(from, to *Port) *linkState {
	if to.id >= len(from.links) {
		from.links = append(from.links, make([]linkState, len(t.ports)-len(from.links))...)
	}
	return &from.links[to.id]
}

// find returns the position of name in the sorted endpoint list, or where it
// would be inserted.
func (t *Transport) find(name string) int {
	i, _ := slices.BinarySearchFunc(t.list, name, func(ep *endpoint, name string) int {
		return strings.Compare(ep.port.name, name)
	})
	return i
}

// Register attaches a named endpoint with a message handler. Registering
// the same name twice replaces the handler.
func (t *Transport) Register(name string, h Handler) {
	if t.stopped {
		return
	}
	p := t.Port(name)
	if p.ep != nil {
		p.ep.handler = h
		return
	}
	p.ep = &endpoint{port: p, handler: h}
	t.list = slices.Insert(t.list, t.find(name), p.ep)
}

// Unregister detaches an endpoint; queued messages for it are dropped.
func (t *Transport) Unregister(name string) {
	p := t.ports[name]
	if p == nil || p.ep == nil {
		return
	}
	p.ep.handler = nil
	p.ep = nil
	i := t.find(name)
	t.list = slices.Delete(t.list, i, i+1)
}

// Endpoints returns the names of all registered endpoints, sorted.
func (t *Transport) Endpoints() []string {
	names := make([]string, 0, len(t.list))
	for _, ep := range t.list {
		names = append(names, ep.port.name)
	}
	return names
}

// Send schedules delivery of a message between two names. It returns an
// error when the destination is unknown or the transport is stopped.
func (t *Transport) Send(from, to, kind string, payload any) error {
	if t.stopped {
		return ErrStopped
	}
	dst := t.ports[to]
	if dst == nil {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, to)
	}
	return t.SendPort(t.Port(from), dst, kind, payload)
}

// SendPort schedules delivery of a message between two ports. It returns an
// error when the destination is not registered or the transport is
// stopped.
func (t *Transport) SendPort(from, to *Port, kind string, payload any) error {
	if t.stopped {
		return ErrStopped
	}
	if to.ep == nil {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, to.name)
	}
	wake, err := t.schedule(from, to.ep, kind, payload, t.clk.Now())
	if wake {
		t.deliver.Trigger()
	}
	return err
}

// schedule enqueues one message and reports whether the delivery event
// must be triggered.
func (t *Transport) schedule(from *Port, ep *endpoint, kind string, payload any, now time.Time) (wake bool, err error) {
	to := ep.port
	ls := t.link(from, to)
	delay := t.latency.Delay(from.name, to.name) + ls.deg.Extra
	nowN := int64(now.Sub(t.t0))
	readyN := nowN
	if delay > 0 {
		readyN += int64(delay)
	}

	// Per-link FIFO clamp and loss draw.
	if readyN < ls.lastReady {
		readyN = ls.lastReady
	}
	ls.lastReady = readyN
	lost := false
	if ls.deg.Loss > 0 {
		if ls.rng == nil {
			ls.rng = rand.New(rand.NewSource(linkSeed(t.seed, from.name, to.name)))
		}
		lost = ls.rng.Float64() < ls.deg.Loss
	}
	if t.tracer != nil {
		hopN := ls.hops
		ls.hops++
		// The ordinal decides membership; the link hash decorrelates the
		// sampled ordinals across links.
		if !lost && t.tracer.Sampled(hopN^fnvAdd(fnvAdd(fnvOffset64, from.name), to.name)) {
			startN := now.UnixNano()
			t.tracer.Add(trace.Span{
				Name:  kind,
				Cat:   "net",
				Proc:  t.traceProc,
				Lane:  from.name + "→" + to.name,
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
		return false, fmt.Errorf("network: endpoint %q queue full", to.name)
	}
	ep.pending++
	return t.queue.enqueue(item{
		payload:    payload,
		from:       from,
		ep:         ep,
		readyNanos: readyN,
	}, nowN), nil
}

// Broadcast sends to every registered endpoint except the sender, in
// sorted-name order, returning the number of successful sends. The
// delivery event is triggered once, after the whole fan-out.
func (t *Transport) Broadcast(from, kind string, payload any) int {
	src := t.Port(from)
	now := t.clk.Now()
	n, wake := 0, false
	for _, ep := range t.list {
		if ep.port == src {
			continue
		}
		w, err := t.schedule(src, ep, kind, payload, now)
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
	if t.degraded == 0 {
		return
	}
	for _, p := range t.ports { // in any order: every link ends up pristine
		for i := range p.links {
			p.links[i].deg = Degradation{}
		}
	}
	t.degraded = 0
}

// DegradeLink makes the directed link src→dst slow and lossy: subsequent
// messages gain extra one-way delay and are lost with probability loss
// (clamped to [0, 1]). A zero Degradation restores the link; HealAll clears
// every degradation. On a stopped transport it does nothing.
func (t *Transport) DegradeLink(src, dst string, extra time.Duration, loss float64) {
	if t.stopped {
		return
	}
	d := Degradation{Extra: extra, Loss: min(max(loss, 0), 1)}
	if d.Extra <= 0 && d.Loss == 0 {
		d = Degradation{} // restores the link
	}
	ls := t.link(t.Port(src), t.Port(dst))
	if was, is := ls.deg != (Degradation{}), d != (Degradation{}); was != is {
		if is {
			t.degraded++
		} else {
			t.degraded--
		}
	}
	ls.deg = d
}

// DegradedCount reports how many directed links carry a degradation.
func (t *Transport) DegradedCount() int {
	return t.degraded
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
	t.HealAll()
	t.stopped = true
	for _, ep := range t.list {
		ep.handler = nil
		ep.port.ep = nil
	}
	t.list = nil
	t.deliver.Stop()
}
