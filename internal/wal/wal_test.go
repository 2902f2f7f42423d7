package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncAlways}, clock.NewAutoVirtual())
	for i := 0; i < 10; i++ {
		res := l.Append(i % 4)
		if !res.Synced {
			t.Fatalf("append %d: always policy must sync", i)
		}
		if res.Latency <= 0 {
			t.Fatalf("append %d: modeled latency must be positive", i)
		}
	}
	rep := l.Replay()
	if rep.Records != 10 || rep.Lost != 0 {
		t.Fatalf("replay = %+v, want 10 records, 0 lost", rep)
	}
	if rep.Latency <= 0 {
		t.Fatalf("replay latency must be positive, got %v", rep.Latency)
	}
	st := l.Stats()
	if st.AppendedRecords != 10 || st.LiveRecords != 10 || st.LostRecords != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncBatch, BatchRecords: 4}, clock.NewAutoVirtual())
	synced := 0
	for i := 0; i < 10; i++ {
		if l.Append(1).Synced {
			synced++
		}
	}
	if synced != 2 {
		t.Fatalf("batch(4) over 10 appends synced %d times, want 2", synced)
	}
	// 8 durable, 2 pending: a crash loses exactly the pending tail.
	if lost := l.Crash(); lost != 2 {
		t.Fatalf("crash lost %d records, want 2", lost)
	}
	rep := l.Replay()
	if rep.Records != 8 || rep.Lost != 0 {
		t.Fatalf("post-crash replay = %+v, want 8 valid records", rep)
	}
	// The log is repaired: appends continue from the valid prefix.
	l.Append(1)
	if rep := l.Replay(); rep.Records != 9 {
		t.Fatalf("append after crash: replay %d records, want 9", rep.Records)
	}
}

func TestFsyncNeverLosesEverythingSinceSnapshot(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncNever}, clock.NewAutoVirtual())
	for i := 0; i < 5; i++ {
		l.Append(1)
	}
	l.Snapshot()
	for i := 0; i < 3; i++ {
		if l.Append(1).Synced {
			t.Fatal("never policy must not sync on append")
		}
	}
	if lost := l.Crash(); lost != 3 {
		t.Fatalf("crash lost %d, want all 3 post-snapshot records", lost)
	}
	if rep := l.Replay(); rep.Records != 0 {
		t.Fatalf("replay after snapshot+crash = %d records, want 0", rep.Records)
	}
}

func TestBatchIntervalTriggersSync(t *testing.T) {
	clk := clock.NewAutoVirtual()
	l := New("n0", Options{Fsync: FsyncBatch, BatchRecords: 100, BatchInterval: 10 * time.Millisecond}, clk)
	if l.Append(1).Synced {
		t.Fatal("first append must not sync")
	}
	clk.Sleep(20 * time.Millisecond)
	if !l.Append(1).Synced {
		t.Fatal("append after BatchInterval must sync")
	}
}

// segmentEntries is the largest entry count whose frame fits in one
// segment.
const segmentEntries = (segmentBytes - headerBytes - payloadHeader) / bytesPerEntry

func TestSegmentRotationAndSnapshotCompaction(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncAlways, SnapshotEvery: 50}, clock.NewAutoVirtual())
	snapped := false
	for i := 0; i < 120; i++ {
		// Three frames to a segment.
		if l.Append(segmentEntries / 3).Snapshotted {
			snapped = true
		}
	}
	if !snapped {
		t.Fatal("SnapshotEvery=50 over 120 appends must snapshot")
	}
	st := l.Stats()
	if st.Snapshots != 2 {
		t.Fatalf("snapshots = %d, want 2", st.Snapshots)
	}
	if st.LiveRecords != 20 {
		t.Fatalf("live records = %d, want 20 (120 mod 50)", st.LiveRecords)
	}
	if len(l.segs) != 7 {
		t.Fatalf("segments = %d, want 7: the 20 live records three to a segment", len(l.segs))
	}
	if rep := l.Replay(); rep.Records != 20 {
		t.Fatalf("replay = %d records, want the 20 since the checkpoint", rep.Records)
	}
}

func TestTornWriteStopsReplayAtValidPrefix(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncAlways}, clock.NewAutoVirtual())
	for i := 0; i < 6; i++ {
		l.Append(2)
	}
	if !l.InjectTornWrite() {
		t.Fatal("torn write must apply to a non-empty log")
	}
	rep := l.Replay()
	if rep.Records != 5 || rep.Lost != 1 {
		t.Fatalf("replay after torn write = %+v, want 5 valid / 1 lost", rep)
	}
	// Repair happened: a second replay sees a clean 5-record log, and new
	// appends extend it.
	if rep := l.Replay(); rep.Records != 5 || rep.Lost != 0 {
		t.Fatalf("second replay = %+v, want clean 5 records", rep)
	}
	l.Append(1)
	if rep := l.Replay(); rep.Records != 6 || rep.Lost != 0 {
		t.Fatalf("replay after repair+append = %+v, want 6 records", rep)
	}
}

func TestCorruptRecordStopsReplayMidLog(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncAlways}, clock.NewAutoVirtual())
	for i := 0; i < 8; i++ {
		l.Append(1)
	}
	if !l.InjectCorruptRecord() {
		t.Fatal("corruption must apply to a non-empty log")
	}
	rep := l.Replay()
	if rep.Records != 4 || rep.Lost != 4 {
		t.Fatalf("replay after mid-log corruption = %+v, want 4 valid / 4 lost", rep)
	}
	if st := l.Stats(); st.LostRecords != 4 {
		t.Fatalf("lost counter = %d, want 4", st.LostRecords)
	}
}

func TestInjectorsOnEmptyLog(t *testing.T) {
	l := New("n0", Options{}, clock.NewAutoVirtual())
	if l.InjectTornWrite() {
		t.Fatal("torn write on empty log must report false")
	}
	if l.InjectCorruptRecord() {
		t.Fatal("corruption on empty log must report false")
	}
	if lost := l.Crash(); lost != 0 {
		t.Fatalf("crash on empty log lost %d", lost)
	}
	if rep := l.Replay(); rep.Records != 0 || rep.Lost != 0 {
		t.Fatalf("replay on empty log = %+v", rep)
	}
}

func TestAppendBatchForcesSingleSync(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncNever}, clock.NewAutoVirtual())
	res := l.AppendBatch([]int{1, 2, 3})
	if !res.Synced {
		t.Fatal("AppendBatch must force a sync")
	}
	if st := l.Stats(); st.Fsyncs != 1 || st.AppendedRecords != 3 {
		t.Fatalf("stats = %+v, want 1 fsync / 3 records", st)
	}
	if lost := l.Crash(); lost != 0 {
		t.Fatalf("crash after AppendBatch lost %d, want 0", lost)
	}
}

func TestLatencyScaling(t *testing.T) {
	m := DefaultLatency().Scaled(0.5)
	if m.Fsync != time.Millisecond {
		t.Fatalf("scaled fsync = %v, want 1ms", m.Fsync)
	}
	if m.RefetchPerRecord != 2500*time.Microsecond {
		t.Fatalf("scaled refetch = %v", m.RefetchPerRecord)
	}
}

func TestDeterministicFrames(t *testing.T) {
	mk := func() *Log {
		l := New("n0", Options{Fsync: FsyncAlways}, clock.NewAutoVirtual())
		for i := 0; i < 12; i++ {
			l.Append(i % 3)
		}
		return l
	}
	a, b := mk(), mk()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("two identical append sequences diverged: %+v vs %+v", sa, sb)
	}
	if len(a.segs) != len(b.segs) {
		t.Fatalf("segment counts diverged: %d vs %d", len(a.segs), len(b.segs))
	}
	for i := range a.segs {
		if a.segs[i].base != b.segs[i].base || !bytes.Equal(a.segs[i].buf, b.segs[i].buf) {
			t.Fatalf("segment %d bytes diverged", i)
		}
	}
}

// referenceFrame is the frame format as originally written: a fresh,
// zeroed buffer per record, filled a byte at a time. frameInto must
// reproduce it byte for byte.
func referenceFrame(seq uint64, entries int) []byte {
	plen := payloadHeader + entries*bytesPerEntry
	buf := make([]byte, headerBytes+plen)
	payload := buf[headerBytes:]
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	binary.LittleEndian.PutUint64(payload[8:16], uint64(entries))
	for i := payloadHeader; i < plen; i++ {
		payload[i] = byte(seq) ^ byte(i*31)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(plen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf
}

func TestFrameIntoMatchesReference(t *testing.T) {
	prefix := []byte{1, 2, 3}
	for _, seq := range []uint64{0, 1, 254, 255, 256, 257, 511, 1<<40 + 3} {
		for entries := 0; entries <= 40; entries++ {
			want := referenceFrame(seq, entries)
			// Stale bytes fill the spare capacity, and an odd-length
			// prefix moves the frame off word alignment.
			dst := bytes.Repeat([]byte{0xA5}, len(prefix)+len(want))
			copy(dst, prefix)
			got := frameInto(dst[:len(prefix)], seq, entries)
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("seq=%d entries=%d: prefix overwritten", seq, entries)
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("seq=%d entries=%d: frame differs from the reference", seq, entries)
			}
		}
	}
}

// checkLiveFrames asserts that every live frame equals the reference for
// the entry count appended at its seq, and that Replay verifies them all.
func checkLiveFrames(t *testing.T, l *Log, entriesAt map[uint64]int) {
	t.Helper()
	seq := l.snapSeq
	for si, s := range l.segs {
		for off := 0; off < len(s.buf); seq++ {
			want := referenceFrame(seq, entriesAt[seq])
			end := off + len(want)
			if end > len(s.buf) || !bytes.Equal(s.buf[off:end], want) {
				t.Fatalf("segment %d offset %d: frame %d differs from the reference", si, off, seq)
			}
			off = end
		}
	}
	if live := l.seq - l.snapSeq; seq-l.snapSeq != live {
		t.Fatalf("walked %d frames, log holds %d", seq-l.snapSeq, live)
	}
	if rep := l.Replay(); rep.Lost != 0 || uint64(rep.Records) != l.seq-l.snapSeq {
		t.Fatalf("replay = %+v, want all %d live records verified", rep, l.seq-l.snapSeq)
	}
}

// TestReusedStorageMatchesReference rewrites storage the log already owns —
// after a snapshot, a crash, a torn-write repair and a corrupt-record
// repair — and checks every frame written over stale bytes.
func TestReusedStorageMatchesReference(t *testing.T) {
	l := New("n0", Options{Fsync: FsyncBatch, BatchRecords: 3}, clock.NewAutoVirtual())
	entriesAt := map[uint64]int{}
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			// Sizes vary with seq, so rewritten frames straddle old ones,
			// and run from empty to over a segment, so segments rotate.
			e := int(l.seq*7%11) * segmentEntries / 8
			entriesAt[l.seq] = e
			l.Append(e)
		}
	}
	appendN(20)
	if len(l.segs) < 2 {
		t.Fatal("20 appends of up to a segment each stayed in one segment")
	}
	checkLiveFrames(t, l, entriesAt)

	l.Snapshot()
	appendN(9)
	checkLiveFrames(t, l, entriesAt)

	appendN(2)
	if lost := l.Crash(); lost != 2 {
		t.Fatalf("crash lost %d, want the 2 unsynced records", lost)
	}
	appendN(5)
	checkLiveFrames(t, l, entriesAt)

	if !l.InjectTornWrite() {
		t.Fatal("torn write must apply")
	}
	if rep := l.Replay(); rep.Lost != 1 {
		t.Fatalf("replay after torn write = %+v, want 1 lost", rep)
	}
	appendN(4)
	checkLiveFrames(t, l, entriesAt)

	// The corrupted record is rewritten at the same offset with the same
	// size, over its flipped reserved byte.
	if !l.InjectCorruptRecord() {
		t.Fatal("corruption must apply")
	}
	if rep := l.Replay(); rep.Lost == 0 {
		t.Fatalf("replay after corruption = %+v, want a lost suffix", rep)
	}
	appendN(6)
	checkLiveFrames(t, l, entriesAt)
}

func TestAppendAllocs(t *testing.T) {
	for _, fsync := range []string{FsyncAlways, FsyncBatch} {
		l := New("n0", Options{Fsync: fsync}, clock.NewAutoVirtual())
		l.Append(1) // sizes the first segment's buffer
		if n := testing.AllocsPerRun(100, func() { l.Append(1) }); n != 0 {
			t.Fatalf("%s: Append inside a segment allocates %v, want 0", fsync, n)
		}
	}
	// A frame over a segment's size: every append rotates. The segment
	// list's growth amortizes below one allocation per append.
	l := New("n0", Options{}, clock.NewAutoVirtual())
	l.Append(segmentEntries + 1)
	if n := testing.AllocsPerRun(100, func() { l.Append(segmentEntries + 1) }); n != 2 {
		t.Fatalf("a rotating Append allocates %v, want 2 (the new segment and its buffer)", n)
	}
}

func BenchmarkAppend(b *testing.B) {
	for _, fsync := range []string{FsyncAlways, FsyncBatch} {
		b.Run(fsync, func(b *testing.B) {
			// Snapshots bound the log to a few segments, so the loop
			// measures steady-state appends, rotations included.
			l := New("bench", Options{Fsync: fsync, SnapshotEvery: 2048}, clock.NewAutoVirtual())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Append(1)
			}
		})
	}
}
