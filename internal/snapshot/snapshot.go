// Package snapshot serializes the ranking daemon's deduplicated vote
// state into checksummed, versioned snapshot files, so recovery after a
// restart is bounded by snapshot-load plus a short journal-suffix replay
// instead of replaying every record the daemon ever acknowledged.
//
// A snapshot is a point-in-time capture of everything journal replay
// would rebuild: the deduplicated votes, the state generation counter,
// and the journal sequence number the capture covers. After a snapshot at
// sequence S is durably on disk, every journal segment wholly below S is
// redundant and may be compacted away.
//
// # On-disk format
//
//	8 bytes   magic + version ("CRWDSNP\x02")
//	4 bytes   CRC32-Castagnoli of the payload, little-endian
//	8 bytes   payload length, little-endian uint64
//	payload   varint-encoded State (see encode)
//
// Version 2 appends the batch-ack idempotency window after the votes;
// version-1 files ("CRWDSNP\x01") still load, with an empty window.
//
// Snapshot files are named snapshot.<seq> (zero-padded, so lexical and
// numeric order agree) and written atomically: temp file in the same
// directory → fsync → rename → fsync directory. A crash mid-write leaves
// only a *.tmp file, which readers ignore and the next successful write
// cleans up. Load verifies the magic, length, checksum, and every decoded
// field before returning — a corrupt snapshot is an error, never a
// partial state, a property fuzzed by FuzzSnapshotLoad.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"crowdrank/internal/crowd"
)

// fileMagic identifies a crowdrank snapshot; the final byte is the format
// version. Version 2 appends the batch-ack window after the votes;
// version 1 files (no ack window) still load, with empty Acks.
var (
	fileMagic   = []byte("CRWDSNP\x02")
	fileMagicV1 = []byte("CRWDSNP\x01")
)

// headerSize is magic (8) + CRC (4) + payload length (8).
const headerSize = 20

// Prefix names snapshot files inside the journal directory.
const Prefix = "snapshot."

// maxSnapshotBytes bounds how much Load will read: a snapshot holds at
// most one vote per (worker, pair) submission, so multi-gigabyte files
// are corruption (or hostile), not state.
const maxSnapshotBytes = 1 << 31

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is the daemon state a snapshot captures. It is exactly what
// journal replay up to Seq would rebuild, so recovery can substitute the
// snapshot for the replay prefix.
type State struct {
	// N is the object universe; M the worker universe. A snapshot only
	// loads into a server configured with the same universe.
	N, M int
	// Seq is the journal sequence this snapshot covers: every record with
	// sequence < Seq is folded in, and recovery replays from Seq.
	Seq uint64
	// Gen is the server's state-generation counter at capture (it keys
	// the answer cache and must survive restarts monotonically).
	Gen uint64
	// DupVotes is the cross-batch duplicate count at capture, preserved
	// so operational stats do not reset on restart.
	DupVotes int
	// Votes is the deduplicated vote state, in acceptance order.
	Votes []crowd.Vote
	// Acks is the batch idempotency window at capture, oldest first, so a
	// retried batch key is answered with its original ack across restarts
	// without re-journaling.
	Acks []AckEntry
}

// AckEntry is one remembered batch acknowledgement: the idempotency key
// and exactly what the daemon answered when the batch became durable.
type AckEntry struct {
	Key        string
	Accepted   int
	Duplicates int
	Malformed  int
	Seq        int
	TotalVotes int
}

// maxAckKeyLen bounds one stored idempotency key; serve enforces the
// same bound at ingest, so a longer key in a snapshot is corruption.
const maxAckKeyLen = 256

// Entry is one snapshot file found by List.
type Entry struct {
	Path string
	Seq  uint64
}

// name formats the snapshot filename covering seq.
func name(seq uint64) string {
	return fmt.Sprintf("%s%020d", Prefix, seq)
}

// encode serializes st as the snapshot payload.
func encode(st State) []byte {
	buf := make([]byte, 0, 64+len(st.Votes)*8)
	buf = binary.AppendUvarint(buf, uint64(st.N))
	buf = binary.AppendUvarint(buf, uint64(st.M))
	buf = binary.AppendUvarint(buf, st.Seq)
	buf = binary.AppendUvarint(buf, st.Gen)
	buf = binary.AppendUvarint(buf, uint64(st.DupVotes))
	buf = binary.AppendUvarint(buf, uint64(len(st.Votes)))
	for _, v := range st.Votes {
		buf = binary.AppendUvarint(buf, uint64(v.Worker))
		buf = binary.AppendUvarint(buf, uint64(v.I))
		buf = binary.AppendUvarint(buf, uint64(v.J))
		if v.PrefersI {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Acks)))
	for _, a := range st.Acks {
		buf = binary.AppendUvarint(buf, uint64(len(a.Key)))
		buf = append(buf, a.Key...)
		buf = binary.AppendUvarint(buf, uint64(a.Accepted))
		buf = binary.AppendUvarint(buf, uint64(a.Duplicates))
		buf = binary.AppendUvarint(buf, uint64(a.Malformed))
		buf = binary.AppendUvarint(buf, uint64(a.Seq))
		buf = binary.AppendUvarint(buf, uint64(a.TotalVotes))
	}
	return buf
}

// decode parses a snapshot payload, validating every field: counts must
// match the bytes present, no trailing garbage, and every vote must fit
// the declared universe. Unlike journal replay — where an out-of-universe
// vote is dropped and counted — a snapshot vote that fails validation
// means the snapshot itself is untrustworthy, so decode refuses outright.
// version selects the payload layout: 1 ends after the votes, 2 appends
// the ack window.
func decode(data []byte, version byte) (State, error) {
	var st State
	rest := data
	readField := func(fieldName string) (uint64, error) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, fmt.Errorf("snapshot: %s unreadable at byte %d", fieldName, len(data)-len(rest))
		}
		rest = rest[k:]
		return v, nil
	}
	const maxID = 1 << 31
	n, err := readField("object count")
	if err != nil {
		return st, err
	}
	m, err := readField("worker count")
	if err != nil {
		return st, err
	}
	if n == 0 || n >= maxID || m == 0 || m >= maxID {
		return st, fmt.Errorf("snapshot: implausible universe n=%d m=%d", n, m)
	}
	st.N, st.M = int(n), int(m)
	if st.Seq, err = readField("sequence"); err != nil {
		return st, err
	}
	if st.Gen, err = readField("generation"); err != nil {
		return st, err
	}
	dups, err := readField("duplicate count")
	if err != nil {
		return st, err
	}
	if dups >= maxID {
		return st, fmt.Errorf("snapshot: implausible duplicate count %d", dups)
	}
	st.DupVotes = int(dups)
	count, err := readField("vote count")
	if err != nil {
		return st, err
	}
	// Each vote takes at least 4 bytes; a count promising more than the
	// payload could hold is corruption, and bounding it caps allocation.
	if count > uint64(len(rest)) {
		return st, fmt.Errorf("snapshot: vote count %d exceeds payload capacity %d", count, len(rest))
	}
	st.Votes = make([]crowd.Vote, 0, count)
	for i := uint64(0); i < count; i++ {
		worker, err := readField("worker")
		if err != nil {
			return st, err
		}
		vi, err := readField("object i")
		if err != nil {
			return st, err
		}
		vj, err := readField("object j")
		if err != nil {
			return st, err
		}
		if len(rest) == 0 {
			return st, fmt.Errorf("snapshot: vote %d missing preference byte", i)
		}
		pref := rest[0]
		rest = rest[1:]
		if pref > 1 {
			return st, fmt.Errorf("snapshot: vote %d has preference byte %d", i, pref)
		}
		if worker >= maxID || vi >= maxID || vj >= maxID {
			return st, fmt.Errorf("snapshot: vote %d outside the id space", i)
		}
		v := crowd.Vote{Worker: int(worker), I: int(vi), J: int(vj), PrefersI: pref == 1}
		if err := v.Validate(st.N, st.M); err != nil {
			return st, fmt.Errorf("snapshot: vote %d outside the declared universe: %w", i, err)
		}
		st.Votes = append(st.Votes, v)
	}
	if version >= 2 {
		ackCount, err := readField("ack count")
		if err != nil {
			return st, err
		}
		// Each ack takes at least 6 bytes (empty key + five counters).
		if ackCount > uint64(len(rest)) {
			return st, fmt.Errorf("snapshot: ack count %d exceeds payload capacity %d", ackCount, len(rest))
		}
		st.Acks = make([]AckEntry, 0, ackCount)
		for i := uint64(0); i < ackCount; i++ {
			keyLen, err := readField("ack key length")
			if err != nil {
				return st, err
			}
			if keyLen == 0 || keyLen > maxAckKeyLen {
				return st, fmt.Errorf("snapshot: ack %d key length %d outside [1,%d]", i, keyLen, maxAckKeyLen)
			}
			if uint64(len(rest)) < keyLen {
				return st, fmt.Errorf("snapshot: ack %d key truncated", i)
			}
			a := AckEntry{Key: string(rest[:keyLen])}
			rest = rest[keyLen:]
			for _, f := range []struct {
				name string
				dst  *int
			}{
				{"ack accepted", &a.Accepted},
				{"ack duplicates", &a.Duplicates},
				{"ack malformed", &a.Malformed},
				{"ack sequence", &a.Seq},
				{"ack total votes", &a.TotalVotes},
			} {
				v, err := readField(f.name)
				if err != nil {
					return st, err
				}
				if v >= maxID {
					return st, fmt.Errorf("snapshot: implausible %s %d", f.name, v)
				}
				*f.dst = int(v)
			}
			st.Acks = append(st.Acks, a)
		}
	}
	if len(rest) != 0 {
		return st, fmt.Errorf("snapshot: %d trailing bytes", len(rest))
	}
	return st, nil
}

// Encode serializes st into the complete snapshot file format — magic,
// checksum, length, payload — exactly the bytes Write persists. The
// replication layer uses it to ship a leader's state to a bootstrapping
// follower over the wire without first spilling it to the leader's disk;
// the receiver validates and lands the bytes with InstallRaw.
func Encode(st State) []byte {
	payload := encode(st)
	buf := make([]byte, headerSize+len(payload))
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(payload)))
	copy(buf[headerSize:], payload)
	return buf
}

// Decode validates data as a complete snapshot file (as produced by Encode
// or read back from disk) and returns the State it carries. It applies the
// same integrity and universe checks as Load.
func Decode(data []byte) (State, error) {
	var st State
	if len(data) < headerSize {
		return st, fmt.Errorf("snapshot: %d bytes is too short for a snapshot header", len(data))
	}
	var version byte
	switch {
	case string(data[:8]) == string(fileMagic):
		version = 2
	case string(data[:8]) == string(fileMagicV1):
		version = 1
	default:
		return st, fmt.Errorf("snapshot: bad magic %q", data[:8])
	}
	want := binary.LittleEndian.Uint32(data[8:12])
	length := binary.LittleEndian.Uint64(data[12:20])
	payload := data[headerSize:]
	if uint64(len(payload)) != length {
		return st, fmt.Errorf("snapshot: payload is %d bytes, header promises %d", len(payload), length)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return st, fmt.Errorf("snapshot: checksum mismatch: recorded %08x, computed %08x", want, got)
	}
	return decode(payload, version)
}

// InstallRaw validates data as a complete snapshot file and atomically
// lands it in dir under the canonical snapshot.<seq> name, returning the
// final path and the decoded state. It is the receiving half of a
// replication bootstrap: the follower installs the leader's encoded
// snapshot, then opens its journal with ReplayFrom at the returned
// state's Seq. Damaged bytes are refused before anything touches disk.
func InstallRaw(dir string, data []byte) (string, State, error) {
	st, err := Decode(data)
	if err != nil {
		return "", st, err
	}
	if int64(len(data)) > maxSnapshotBytes {
		return "", st, fmt.Errorf("snapshot: %d bytes is beyond the plausible maximum", len(data))
	}
	path, err := writeRaw(dir, name(st.Seq), data)
	if err != nil {
		return "", st, err
	}
	return path, st, nil
}

// Write atomically persists st into dir as snapshot.<seq> and returns the
// final path. The sequence of temp-write → fsync → rename → directory
// fsync guarantees that after Write returns nil the snapshot survives
// power loss, and that a crash at any earlier point leaves the previous
// snapshots untouched. Leftover *.tmp files from crashed writers are
// removed opportunistically.
func Write(dir string, st State) (string, error) {
	return writeRaw(dir, name(st.Seq), Encode(st))
}

// writeRaw lands buf in dir under filename via the atomic temp → fsync →
// rename → directory-fsync dance shared by Write and InstallRaw.
func writeRaw(dir, filename string, buf []byte) (string, error) {
	final := filepath.Join(dir, filename)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("snapshot: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(buf); err != nil {
		//lint:ignore errcheck error-path cleanup of the abandoned temp file; the write error is already being returned
		_ = f.Close()
		_ = os.Remove(tmp)
		return "", fmt.Errorf("snapshot: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		//lint:ignore errcheck error-path cleanup of the abandoned temp file; the sync error is already being returned
		_ = f.Close()
		_ = os.Remove(tmp)
		return "", fmt.Errorf("snapshot: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("snapshot: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("snapshot: publishing %s: %w", final, err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	removeStaleTmp(dir)
	return final, nil
}

// Load reads and fully validates the snapshot at path. Any damage —
// wrong magic, truncation, checksum mismatch, undecodable or
// out-of-universe state — is an error; Load never returns a partial or
// guessed State.
func Load(path string) (State, error) {
	var st State
	info, err := os.Stat(path)
	if err != nil {
		return st, fmt.Errorf("snapshot: stat %s: %w", path, err)
	}
	if info.Size() > maxSnapshotBytes {
		return st, fmt.Errorf("snapshot: %s is %d bytes, beyond the plausible maximum", path, info.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return st, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	st, err = Decode(data)
	if err != nil {
		return st, fmt.Errorf("%w (in %s)", err, path)
	}
	return st, nil
}

// List returns the snapshot files in dir, newest (highest covered
// sequence) first. Files still mid-write (*.tmp) and unrelated names are
// ignored. A missing directory lists as empty.
func List(dir string) ([]Entry, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading directory %s: %w", dir, err)
	}
	var out []Entry
	for _, e := range entries {
		nm := e.Name()
		if e.IsDir() || !strings.HasPrefix(nm, Prefix) || strings.HasSuffix(nm, ".tmp") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(nm, Prefix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, Entry{Path: filepath.Join(dir, nm), Seq: seq})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq > out[b].Seq })
	return out, nil
}

// Prune deletes all but the keep newest snapshots in dir and returns the
// removed paths. The deletions are made durable with a directory fsync.
func Prune(dir string, keep int) ([]string, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := List(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) <= keep {
		return nil, nil
	}
	var removed []string
	for _, e := range entries[keep:] {
		if err := os.Remove(e.Path); err != nil {
			return removed, fmt.Errorf("snapshot: pruning %s: %w", e.Path, err)
		}
		removed = append(removed, e.Path)
	}
	if err := syncDir(dir); err != nil {
		return removed, err
	}
	return removed, nil
}

// DiskUsage sums the sizes of all snapshot files in dir (including any
// in-flight *.tmp), for operational reporting.
func DiskUsage(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), Prefix) {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// removeStaleTmp clears crashed writers' leftovers; best-effort, errors
// are ignored because a stray tmp file is harmless to correctness.
func removeStaleTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		nm := e.Name()
		if !e.IsDir() && strings.HasPrefix(nm, Prefix) && strings.HasSuffix(nm, ".tmp") {
			_ = os.Remove(filepath.Join(dir, nm))
		}
	}
}

// syncDir fsyncs dir so renames and removals are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: opening %s to sync: %w", dir, err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("snapshot: syncing directory %s: %w", dir, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("snapshot: closing directory %s: %w", dir, closeErr)
	}
	return nil
}
