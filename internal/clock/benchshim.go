package clock

import "fmt"

// This file keeps the calls the benchmark ledger's probes (bench/) make, whose
// source is frozen so that its numbers compare across versions. Its
// goroutine registration and mailboxes schedule nothing anymore; the runner
// and clocktest use Register and Close only to name the caller.

// Handle is the caller's registration, forgotten by Close.
type Handle struct{ v *AutoVirtual }

// Register names the caller: its sleeps tie under name until the Handle is
// closed. Names must be derived from stable identities, never from creation
// order.
func Register(v *AutoVirtual, name string) Handle {
	v.caller = name
	return Handle{v: v}
}

// Close forgets the caller's name; Close of a RegisterForked handle does
// nothing.
func (h Handle) Close() {
	if h.v != nil {
		h.v.caller = ""
	}
}

// Fork does nothing: the probes announce the goroutines of their mailbox
// ping-pong with it.
func Fork(*AutoVirtual, int) {}

// RegisterForked does nothing and returns a Handle whose Close does nothing:
// the goroutines announced by Fork never touch the clock.
func RegisterForked(*AutoVirtual, string) Handle { return Handle{} }

// Mailbox is a buffered channel the probes ping-pong values through.
type Mailbox[T any] struct{ ch chan T }

// NewMailbox builds a mailbox with the given capacity (floored at 1).
func NewMailbox[T any](_ *AutoVirtual, capacity int) *Mailbox[T] {
	return &Mailbox[T]{ch: make(chan T, max(capacity, 1))}
}

// Send enqueues val; a full mailbox panics. The second argument is unused.
func (m *Mailbox[T]) Send(val T, _ any) {
	select {
	case m.ch <- val:
	default:
		panic(fmt.Sprintf("clock: Mailbox.Send to a full mailbox of %d", cap(m.ch)))
	}
}

// Await blocks until m holds a value and takes the oldest, returned boxed;
// idx is always 0 and ok always true.
func Await[T any](_ *AutoVirtual, m *Mailbox[T]) (idx int, val any, ok bool) {
	return 0, <-m.ch, true
}
