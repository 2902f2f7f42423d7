// Fixture for the maporder analyzer: map iteration leaking random key
// order into report/export bytes — the class PR 9's trace exporter and
// the EXPERIMENTS.md writers had to hand-fix — versus the sanctioned
// collect-keys-then-sort idiom. The cases after sum leak it into the
// order the simulation runs in, as the fault injector's restarts of
// crashed nodes once did.
package fixture

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
)

func directWrite(w io.Writer, m map[string]int) {
	for k, v := range m { // want `map iterated in nondeterministic key order while its body writes to an io.Writer`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func directPrint(m map[string]int) {
	for k := range m { // want `map iterated in nondeterministic key order`
		fmt.Println(k)
	}
}

func builderWrite(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `map iterated in nondeterministic key order`
		b.WriteString(k)
	}
	return b.String()
}

func unsortedJSON(m map[string]int) []byte {
	var keys []string
	for k := range m { // want `slice keys collected from a map range is encoded/written without an intervening sort`
		keys = append(keys, k)
	}
	out, _ := json.Marshal(keys)
	return out
}

func unsortedEncoder(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m { // want `slice keys collected from a map range is encoded/written without an intervening sort`
		keys = append(keys, k)
	}
	json.NewEncoder(w).Encode(keys)
}

// The sanctioned idiom: collect, sort, then write. No findings.
func sortedWrite(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// Order-independent folds over a map are fine.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func sendToPeers(tr *network.Transport, peers map[string]bool) {
	for p := range peers { // want `map iterated in nondeterministic key order while its body acts on the simulation \(Transport.Send\)`
		_ = tr.Send("self", p, "k", nil)
	}
}

func registerAll(tr *network.Transport, handlers map[string]network.Handler) {
	for name, h := range handlers { // want `acts on the simulation \(Transport.Register\)`
		tr.Register(name, h)
	}
}

func cutLinks(tr *network.Transport, loss map[string]float64) {
	for name, l := range loss { // want `acts on the simulation \(Transport.DegradeLink\)`
		tr.DegradeLink("self", name, 0, l)
		tr.DegradeLink(name, "self", 0, l) // one report per range
	}
}

func triggerAll(events map[string]*clock.Event) {
	for _, ev := range events { // want `acts on the simulation \(Event.Trigger\)`
		ev.Trigger()
	}
}

func armAll(events map[string]*clock.Event, at time.Time) {
	for _, ev := range events { // want `acts on the simulation \(Event.At\)`
		if ev != nil {
			ev.At(at)
		}
	}
}

func restartAll(d systems.Driver, down map[int]bool) {
	for node := range down { // want `acts on the simulation \(Driver.RestartNode\)`
		_, _ = d.RestartNode(node)
	}
}

// Acting in sorted key order is the sanctioned idiom. No findings.
func restartSorted(d systems.Driver, down map[int]bool) {
	nodes := make([]int, 0, len(down))
	for node := range down {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	for _, node := range nodes {
		_, _ = d.RestartNode(node)
	}
}

// Reading the simulation from a map range is order-independent.
func pendingSum(tr *network.Transport, weights map[string]int64) int64 {
	var total int64
	for _, w := range weights {
		total += w * tr.PendingCount()
	}
	return total
}
