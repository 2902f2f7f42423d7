package faults

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/wal"
)

func TestCrashPointKindsJSONRoundTrip(t *testing.T) {
	in := Schedule{Events: []Event{
		{At: 30 * time.Second, Kind: CrashNode, Node: 3},
		{At: 31 * time.Second, Kind: TornWrite, Node: 3},
		{At: 32 * time.Second, Kind: CorruptRecord, Node: 3},
		{At: 60 * time.Second, Kind: RestartNode, Node: 3},
	}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Schedule
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
	s := string(data)
	for _, want := range []string{`"torn-write"`, `"corrupt-record"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("serialized schedule lacks %s:\n%s", want, s)
		}
	}
	for _, k := range []Kind{TornWrite, CorruptRecord} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestValidateRequiresCrashBeforeLogCorruption(t *testing.T) {
	run := 10 * time.Second
	bad := []struct {
		name string
		s    Schedule
	}{
		{"torn-write on a running node", Schedule{Events: []Event{
			{At: time.Second, Kind: TornWrite, Node: 1},
		}}},
		{"corrupt-record on a running node", Schedule{Events: []Event{
			{At: time.Second, Kind: CorruptRecord, Node: 1},
		}}},
		{"torn-write after restart", Schedule{Events: []Event{
			{At: time.Second, Kind: CrashNode, Node: 1},
			{At: 2 * time.Second, Kind: RestartNode, Node: 1},
			{At: 3 * time.Second, Kind: TornWrite, Node: 1},
		}}},
		{"torn-write on the wrong node", Schedule{Events: []Event{
			{At: time.Second, Kind: CrashNode, Node: 1},
			{At: 2 * time.Second, Kind: TornWrite, Node: 2},
		}}},
		{"torn-write out of range", Schedule{Events: []Event{
			{At: time.Second, Kind: TornWrite, Node: 9},
		}}},
	}
	for _, tc := range bad {
		if err := tc.s.Validate(run, 4); err == nil {
			t.Errorf("%s: Validate accepted an invalid schedule", tc.name)
		}
	}
	good := Schedule{Events: []Event{
		{At: time.Second, Kind: CrashNode, Node: 1},
		{At: 2 * time.Second, Kind: TornWrite, Node: 1},
		{At: 3 * time.Second, Kind: CorruptRecord, Node: 1},
		{At: 4 * time.Second, Kind: RestartNode, Node: 1},
	}}
	if err := good.Validate(run, 4); err != nil {
		t.Fatalf("Validate rejected a sane crash-point schedule: %v", err)
	}
}

// walStub extends stubDriver with a real WAL for crash-point event tests.
type walStub struct {
	*stubDriver
	logs []*wal.Log
}

func (s *walStub) NodeWAL(node int) *wal.Log {
	if node < 0 || node >= len(s.logs) {
		return nil
	}
	return s.logs[node]
}

func TestInjectorAppliesLogCorruption(t *testing.T) {
	drv := &walStub{stubDriver: newStubDriver(2), logs: make([]*wal.Log, 2)}
	drv.logs[1] = wal.New("n1", wal.Options{Fsync: wal.FsyncAlways}, clock.New())
	for i := 0; i < 6; i++ {
		drv.logs[1].Append(1)
	}
	in := NewInjector(drv, Schedule{}, clock.New())
	if err := in.Apply(Event{Kind: TornWrite, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: CorruptRecord, Node: 1}); err != nil {
		t.Fatal(err)
	}
	rep := drv.logs[1].Replay()
	if rep.Lost == 0 {
		t.Fatalf("replay after torn-write + corrupt-record lost nothing: %+v", rep)
	}
	if rep.Records+rep.Lost != 6 {
		t.Fatalf("replay accounts for %d of 6 records: %+v", rep.Records+rep.Lost, rep)
	}
	if got := len(in.Applied()); got != 2 {
		t.Fatalf("applied %d events, want 2", got)
	}

	// Node 0 has no log, and a plain stubDriver's chassis mounts none at
	// all: both decay to unrecorded no-ops.
	if err := in.Apply(Event{Kind: TornWrite, Node: 0}); err != nil {
		t.Fatal(err)
	}
	plain := NewInjector(newStubDriver(2), Schedule{}, clock.New())
	if err := plain.Apply(Event{Kind: CorruptRecord, Node: 0}); err != nil {
		t.Fatal(err)
	}
	if got := len(in.Applied()) + len(plain.Applied()); got != 2 {
		t.Fatalf("no-op corruption events were recorded: %d applied, want 2", got)
	}
}
