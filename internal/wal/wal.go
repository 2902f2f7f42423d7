// Package wal implements the durable recovery plane's write-ahead log: an
// append-only, segment-rotated record log with per-record CRC framing, a
// pluggable fsync policy (always / batch(N, interval) / never), and
// snapshot/compaction that truncates the log at a checkpointed height.
//
// The log is the persistence model behind systems.DurableGate: every node's
// commit work appends a record *before* applying, a crash drops the
// un-synced tail, and a restart replays the surviving records from the last
// snapshot — so recovery cost scales with log length and crash point
// instead of being free by construction (tendermint's consensus ADR: a
// "write-ahead log ensures recovery and the avoidance of signing
// conflicting votes").
//
// Time never flows through the wall clock here: append, fsync, replay, and
// snapshot costs are *modeled* by a LatencyModel and charged by the caller
// on the virtual clock, so runs stay CPU-bound and bit-deterministic. The
// log never touches the filesystem: its in-memory segment image is the
// whole log.
package wal

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// Fsync policy names.
const (
	// FsyncAlways syncs after every append: nothing is ever lost, every
	// record pays the fsync latency.
	FsyncAlways = "always"
	// FsyncBatch syncs once BatchRecords appends accumulate or the oldest
	// unsynced append is BatchInterval old (evaluated lazily at append
	// time, so the policy stays deterministic under the virtual clock).
	FsyncBatch = "batch"
	// FsyncNever syncs only at snapshots: a crash loses everything since
	// the last checkpoint.
	FsyncNever = "never"
)

// ValidFsync reports whether a policy name is recognised.
func ValidFsync(p string) bool {
	return p == "" || p == FsyncAlways || p == FsyncBatch || p == FsyncNever
}

// LatencyModel prices the log's operations. All durations are charged by
// the caller through the injected clock, never slept here.
type LatencyModel struct {
	// AppendPerRecord and AppendPerKB price one append (buffered write).
	AppendPerRecord time.Duration
	AppendPerKB     time.Duration
	// Fsync is one durability barrier.
	Fsync time.Duration
	// ReplayPerRecord and ReplayPerKB price reading and CRC-verifying the
	// log on restart.
	ReplayPerRecord time.Duration
	ReplayPerKB     time.Duration
	// RefetchPerRecord prices re-fetching one record the log could not
	// provide (lost tail, torn/corrupt suffix) from the surviving nodes.
	RefetchPerRecord time.Duration
	// Snapshot is one checkpoint/compaction.
	Snapshot time.Duration
}

// DefaultLatency returns the paper-time cost model: commodity-SSD-flavoured
// constants sized so fsync dominates appends and replay is cheaper per
// record than the original consensus but far from free.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		AppendPerRecord:  50 * time.Microsecond,
		AppendPerKB:      20 * time.Microsecond,
		Fsync:            2 * time.Millisecond,
		ReplayPerRecord:  200 * time.Microsecond,
		ReplayPerKB:      50 * time.Microsecond,
		RefetchPerRecord: 5 * time.Millisecond,
		Snapshot:         10 * time.Millisecond,
	}
}

// Scaled multiplies every constant by f, matching the experiment plane's
// duration scaling.
func (m LatencyModel) Scaled(f float64) LatencyModel {
	s := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	return LatencyModel{
		AppendPerRecord:  s(m.AppendPerRecord),
		AppendPerKB:      s(m.AppendPerKB),
		Fsync:            s(m.Fsync),
		ReplayPerRecord:  s(m.ReplayPerRecord),
		ReplayPerKB:      s(m.ReplayPerKB),
		RefetchPerRecord: s(m.RefetchPerRecord),
		Snapshot:         s(m.Snapshot),
	}
}

// Options parameterize a Log.
type Options struct {
	// Fsync selects the durability policy; empty means FsyncAlways.
	Fsync string
	// BatchRecords is the FsyncBatch record threshold (default 16).
	BatchRecords int
	// BatchInterval is the FsyncBatch age threshold; 0 disables the age
	// trigger.
	BatchInterval time.Duration
	// SnapshotEvery checkpoints and compacts after this many live records;
	// 0 never snapshots.
	SnapshotEvery int
	// Latency prices operations; the zero value means DefaultLatency.
	Latency LatencyModel
}

func (o *Options) fill() {
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.BatchRecords <= 0 {
		o.BatchRecords = 16
	}
	if o.Latency == (LatencyModel{}) {
		o.Latency = DefaultLatency()
	}
}

// Frame layout: [4B payload length][4B CRC32-IEEE of payload][payload].
const headerBytes = 8

// payloadHeader is the fixed prefix of a synthesized payload (seq, entry
// count, reserved), before the per-entry filler bytes.
const payloadHeader = 24

// bytesPerEntry sizes a record's payload per entry it covers, a signed tx
// envelope's ballpark. Like payloadHeader it is a multiple of 8, so every
// payload is a whole number of words.
const bytesPerEntry = 96

// segmentBytes is the size past which the active segment rotates.
const segmentBytes = 64 << 10

// segment is one contiguous run of frames. buf is owned by the log: frames
// are written straight into it, and truncation (crash, replay repair) and
// snapshots reuse its capacity rather than allocating afresh.
type segment struct {
	base uint64 // seq of the segment's first record
	buf  []byte
}

// Log is one node's write-ahead log, touched only by the actor holding the
// clock's token. None of its methods sleeps: modeled latencies are returned
// to the caller.
type Log struct {
	name string
	opts Options
	clk  *clock.AutoVirtual

	segs []*segment
	// seq is the next record's sequence number; snapSeq the checkpointed
	// height (records below it are compacted away); durableSeq the height
	// covered by the last sync.
	seq, snapSeq, durableSeq uint64
	// durSeg/durOff locate the durable watermark inside segs.
	durSeg, durOff int
	pendingSince   time.Time
	pendingRecords int

	appended      uint64
	appendedBytes uint64
	fsyncs        uint64
	snapshots     uint64
	lost          uint64
}

// New builds an empty log named for diagnostics, timed by clk, which is
// required.
func New(name string, opts Options, clk *clock.AutoVirtual) *Log {
	opts.fill()
	if clk == nil {
		panic("wal: New needs a clock")
	}
	return &Log{
		name: name,
		opts: opts,
		clk:  clk,
		segs: []*segment{{}},
	}
}

// Name returns the log's diagnostic name.
func (l *Log) Name() string { return l.name }

// AppendResult reports one append's effects and modeled cost.
type AppendResult struct {
	// Bytes is the framed record size.
	Bytes int
	// Synced and Snapshotted report whether the append triggered a
	// durability barrier or a checkpoint.
	Synced      bool
	Snapshotted bool
	// Latency is the modeled cost the caller must charge on its clock.
	Latency time.Duration
}

// Append writes one commit record covering the given number of entries
// (transactions); zero entries still writes a record (an empty block's
// header). The payload is synthesized deterministically from the sequence
// number, so CRC verification during replay is genuine.
func (l *Log) Append(entries int) AppendResult { return l.appendFrame(entries, true) }

// AppendBatch writes one record per entry count and forces a single sync at
// the end regardless of policy — the restart catch-up path: re-fetched work
// is persisted as a unit before the node reopens.
func (l *Log) AppendBatch(entryCounts []int) AppendResult {
	var out AppendResult
	for _, n := range entryCounts {
		r := l.appendFrame(n, false)
		out.Bytes += r.Bytes
		out.Latency += r.Latency
		out.Snapshotted = out.Snapshotted || r.Snapshotted
	}
	if l.pendingRecords > 0 {
		l.sync()
		out.Synced = true
		out.Latency += l.opts.Latency.Fsync
	}
	return out
}

// appendFrame appends one frame, applying the fsync policy when policySync
// is set.
func (l *Log) appendFrame(entries int, policySync bool) AppendResult {
	if entries < 0 {
		entries = 0
	}
	n := headerBytes + payloadHeader + entries*bytesPerEntry
	active := l.segs[len(l.segs)-1]
	if len(active.buf) > 0 && len(active.buf)+n > segmentBytes {
		active = &segment{base: l.seq}
		l.segs = append(l.segs, active)
	}
	if len(active.buf)+n > cap(active.buf) {
		// A segment's buffer is sized once, at its first append, to hold a
		// whole segment; only a frame larger than segmentBytes grows it.
		buf := make([]byte, len(active.buf), max(len(active.buf)+n, segmentBytes))
		copy(buf, active.buf)
		active.buf = buf
	}
	active.buf = frameInto(active.buf, l.seq, entries)
	l.seq++
	l.appended++
	l.appendedBytes += uint64(n)
	if l.pendingRecords == 0 {
		l.pendingSince = l.clk.Now()
	}
	l.pendingRecords++

	m := l.opts.Latency
	res := AppendResult{
		Bytes:   n,
		Latency: m.AppendPerRecord + perKB(m.AppendPerKB, n),
	}
	if policySync && l.shouldSync() {
		l.sync()
		res.Synced = true
		res.Latency += m.Fsync
	}
	if l.opts.SnapshotEvery > 0 && l.seq-l.snapSeq >= uint64(l.opts.SnapshotEvery) {
		res.Snapshotted = true
		res.Latency += l.Snapshot()
	}
	return res
}

// shouldSync evaluates the fsync policy for the current append.
func (l *Log) shouldSync() bool {
	switch l.opts.Fsync {
	case FsyncAlways:
		return true
	case FsyncBatch:
		if l.pendingRecords >= l.opts.BatchRecords {
			return true
		}
		return l.opts.BatchInterval > 0 && l.clk.Now().Sub(l.pendingSince) >= l.opts.BatchInterval
	default: // FsyncNever
		return false
	}
}

// sync advances the durable watermark to the end of the log.
func (l *Log) sync() {
	l.durSeg = len(l.segs) - 1
	l.durOff = len(l.segs[l.durSeg].buf)
	l.durableSeq = l.seq
	l.pendingRecords = 0
	l.fsyncs++
}

// Snapshot checkpoints the current height and compacts every segment below
// it, returning the modeled checkpoint latency. The checkpoint itself is
// durable, so the watermark advances with it.
func (l *Log) Snapshot() time.Duration {
	l.snapSeq = l.seq
	l.durableSeq = l.seq
	// The first segment and its buffer carry on from the checkpoint; the
	// rest are released.
	clear(l.segs[1:])
	l.segs = l.segs[:1]
	l.segs[0].base = l.seq
	l.segs[0].buf = l.segs[0].buf[:0]
	l.durSeg, l.durOff = 0, 0
	l.pendingRecords = 0
	l.snapshots++
	return l.opts.Latency.Snapshot
}

// Crash drops the un-synced tail (everything past the durable watermark),
// returning how many records were lost. It models the in-memory page cache
// vanishing with the process.
func (l *Log) Crash() int {
	lost := int(l.seq - l.durableSeq)
	if lost == 0 {
		return 0
	}
	l.segs = l.segs[:l.durSeg+1]
	l.segs[l.durSeg].buf = l.segs[l.durSeg].buf[:l.durOff]
	l.seq = l.durableSeq
	l.pendingRecords = 0
	l.lost += uint64(lost)
	return lost
}

// ReplayResult reports one recovery scan.
type ReplayResult struct {
	// Records and Bytes cover the valid prefix that replayed.
	Records int
	Bytes   int
	// Lost counts records past the first invalid frame (torn or corrupt):
	// the log stops there and the caller re-fetches the suffix.
	Lost int
	// Latency is the modeled read+CRC-verify cost of the scan.
	Latency time.Duration
}

// Replay scans the log from the last snapshot, CRC-verifying every frame.
// It stops gracefully at the first invalid frame — a torn write or a
// corrupt record ends the valid prefix, never panics — and repairs the log
// by truncating the invalid suffix so subsequent appends extend the valid
// prefix.
func (l *Log) Replay() ReplayResult {
	inLog := int(l.seq - l.snapSeq)
	valid, bytes, stopSeg, stopOff := l.scan()
	res := ReplayResult{
		Records: valid,
		Bytes:   bytes,
		Lost:    inLog - valid,
		Latency: l.opts.Latency.ReplayPerRecord*time.Duration(valid) + perKB(l.opts.Latency.ReplayPerKB, bytes),
	}
	if res.Lost > 0 {
		// Truncate at the end of the valid prefix: drop the segments past
		// the stop point and cut the stop segment at the last valid frame.
		l.segs = l.segs[:stopSeg+1]
		l.segs[stopSeg].buf = l.segs[stopSeg].buf[:stopOff]
		l.seq = l.snapSeq + uint64(valid)
		l.durSeg, l.durOff = stopSeg, stopOff
		l.durableSeq = l.seq
		l.pendingRecords = 0
		l.lost += uint64(res.Lost)
	}
	return res
}

// scan walks every frame, verifying lengths and CRCs, and returns the
// valid prefix's record count, byte size, and end position.
func (l *Log) scan() (valid, bytes, stopSeg, stopOff int) {
	seq := l.snapSeq
	for si, s := range l.segs {
		off := 0
		for off < len(s.buf) {
			rest := s.buf[off:]
			if len(rest) < headerBytes {
				return valid, bytes, si, off // torn header
			}
			plen := int(binary.LittleEndian.Uint32(rest[0:4]))
			crc := binary.LittleEndian.Uint32(rest[4:8])
			if plen < payloadHeader || headerBytes+plen > len(rest) {
				return valid, bytes, si, off // torn or nonsense payload
			}
			payload := rest[headerBytes : headerBytes+plen]
			if crc32.ChecksumIEEE(payload) != crc {
				return valid, bytes, si, off // corrupt record
			}
			if got := binary.LittleEndian.Uint64(payload[0:8]); got != seq {
				return valid, bytes, si, off // sequence break
			}
			seq++
			valid++
			bytes += headerBytes + plen
			off += headerBytes + plen
		}
		stopSeg, stopOff = si, off
	}
	return valid, bytes, len(l.segs) - 1, len(l.segs[len(l.segs)-1].buf)
}

// RefetchCost prices re-fetching records from the surviving nodes.
func (l *Log) RefetchCost(records int) time.Duration {
	if records <= 0 {
		return 0
	}
	return l.opts.Latency.RefetchPerRecord * time.Duration(records)
}

// InjectTornWrite truncates the log's final record mid-frame, modeling a
// power cut between write and sync. It reports whether there was a record
// to tear (an empty log is left alone).
func (l *Log) InjectTornWrite() bool {
	if l.seq == l.snapSeq {
		return false
	}
	// Find the last non-empty segment and the offset of its final frame.
	si := len(l.segs) - 1
	for si > 0 && len(l.segs[si].buf) == 0 {
		si--
	}
	s := l.segs[si]
	off, last := 0, 0
	for off < len(s.buf) {
		plen := int(binary.LittleEndian.Uint32(s.buf[off : off+4]))
		last = off
		off += headerBytes + plen
	}
	cut := last + (len(s.buf)-last)/2
	if cut <= last {
		cut = last + 1
	}
	s.buf = s.buf[:cut]
	// The torn record is no longer durable; clamp the watermark so a
	// second Crash cannot resurrect bytes past the tear.
	l.durSeg, l.durOff = si, last
	l.segs = l.segs[:si+1]
	if l.durableSeq >= l.seq {
		l.durableSeq = l.seq - 1
	}
	return true
}

// InjectCorruptRecord flips a byte in the payload of the record at the
// middle of the live log, so CRC verification fails there and recovery must
// stop at the prefix before it. It reports whether there was a record to
// corrupt.
func (l *Log) InjectCorruptRecord() bool {
	live := int(l.seq - l.snapSeq)
	if live == 0 {
		return false
	}
	target := live / 2
	idx := 0
	for _, s := range l.segs {
		off := 0
		for off < len(s.buf) {
			plen := int(binary.LittleEndian.Uint32(s.buf[off : off+4]))
			if idx == target {
				// Flip the last reserved byte of the payload header (payload
				// byte 23) so the frame still parses — length, seq and
				// entry count intact — but its CRC no longer matches.
				s.buf[off+headerBytes+payloadHeader-1] ^= 0xFF
				return true
			}
			idx++
			off += headerBytes + plen
		}
	}
	return false
}

// Stats is a snapshot of the log's cumulative counters.
type Stats struct {
	// AppendedRecords/AppendedBytes count everything ever framed.
	AppendedRecords uint64
	AppendedBytes   uint64
	// Fsyncs and Snapshots count durability barriers and checkpoints.
	Fsyncs    uint64
	Snapshots uint64
	// LostRecords counts records dropped by Crash truncation and
	// torn/corrupt repair.
	LostRecords uint64
	// LiveRecords/LiveBytes measure the current log (since the snapshot).
	LiveRecords uint64
	LiveBytes   uint64
}

// Stats returns the log's cumulative counters.
func (l *Log) Stats() Stats {
	var liveBytes uint64
	for _, s := range l.segs {
		liveBytes += uint64(len(s.buf))
	}
	return Stats{
		AppendedRecords: l.appended,
		AppendedBytes:   l.appendedBytes,
		Fsyncs:          l.fsyncs,
		Snapshots:       l.snapshots,
		LostRecords:     l.lost,
		LiveRecords:     l.seq - l.snapSeq,
		LiveBytes:       liveBytes,
	}
}

// UnsyncedRecords reports the appended-but-not-yet-synced tail: the
// records a crash at this instant would lose. It is the gauge the
// telemetry plane samples per window.
func (l *Log) UnsyncedRecords() int {
	return int(l.seq - l.durableSeq)
}

// fillerWords is byte(i*31) for payload positions i = 0..255 as 32
// little-endian words. The filler repeats every 256 bytes and starts at the
// word-aligned payloadHeader, so a word never straddles the period.
var fillerWords = func() (w [32]uint64) {
	var b [256]byte
	for i := range b {
		b[i] = byte(i * 31)
	}
	for k := range w {
		w[k] = binary.LittleEndian.Uint64(b[8*k:])
	}
	return w
}()

// frameInto appends one framed record for seq covering entries to dst and
// returns the extended slice; dst must have the capacity. Every frame byte
// is written, so dst's spare capacity may hold stale frames.
func frameInto(dst []byte, seq uint64, entries int) []byte {
	plen := payloadHeader + entries*bytesPerEntry
	off := len(dst)
	dst = dst[:off+headerBytes+plen]
	payload := dst[off+headerBytes:]
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	binary.LittleEndian.PutUint64(payload[8:16], uint64(entries))
	binary.LittleEndian.PutUint64(payload[16:24], 0) // reserved
	// Deterministic filler byte(seq) ^ byte(i*31), derived from seq and
	// position so every record's CRC is distinct and replay verification
	// is honest; written a word at a time.
	s := uint64(byte(seq)) * 0x0101010101010101
	for i := payloadHeader; i < plen; i += 8 {
		binary.LittleEndian.PutUint64(payload[i:], fillerWords[(i>>3)&31]^s)
	}
	binary.LittleEndian.PutUint32(dst[off:], uint32(plen))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// perKB prices n bytes at a per-KiB rate.
func perKB(rate time.Duration, n int) time.Duration {
	return time.Duration(int64(rate) * int64(n) / 1024)
}
