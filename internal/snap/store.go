// The snapshot store: an append-only journal plus one file per
// snapshot, committed with the classic crash-consistency protocol —
// write the new image to a temp name, fsync it, rename it over the
// final name, fsync the directory, then append a checksummed journal
// record and fsync that. Each step is durable before the next begins,
// so a crash at any byte offset leaves the store in one of a small
// set of states, every one of which Recover maps to "previous
// snapshot" or "new snapshot" — never a torn hybrid.

package snap

import (
	"errors"
	"fmt"
	"hash/crc64"
	"sort"
	"strings"
	"sync"

	"pacstack/internal/compile"
	"pacstack/internal/kernel"
	"pacstack/internal/telemetry"
)

// File naming. Sequence numbers are monotonically increasing and
// zero-padded so lexical order is commit order.
const (
	snapPrefix  = "snap-"
	snapSuffix  = ".pss"
	tmpPrefix   = "tmp-"
	journalName = "journal.psj"
)

func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }
func tmpName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", tmpPrefix, seq, snapSuffix) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	var seq uint64
	for _, c := range hexpart {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		seq = seq<<4 | d
	}
	return seq, true
}

// Journal record format (fixed 36 bytes, little-endian):
//
//	[0:4)   magic "PSJR"
//	[4:12)  snapshot sequence number
//	[12:20) snapshot image size in bytes
//	[20:28) snapshot image trailing CRC
//	[28:36) CRC-64/ECMA over bytes [0:28)
//
// The per-record CRC makes a torn append detectable: the journal's
// valid prefix is authoritative, the torn tail is reported and
// ignored.
const (
	recMagic = "PSJR"
	recSize  = 36
)

type journalRec struct {
	Seq    uint64
	Size   uint64
	ImgCRC uint64
	Offset int // byte offset of the record in the journal
}

func encodeRec(seq uint64, size uint64, imgCRC uint64) []byte {
	b := make([]byte, 0, recSize)
	b = append(b, recMagic...)
	b = appendU64(b, seq)
	b = appendU64(b, size)
	b = appendU64(b, imgCRC)
	b = appendU64(b, crc64.Checksum(b, crcTable))
	return b
}

// parseJournal splits the journal into its valid record prefix and
// reports whether a torn or corrupt tail follows it.
func parseJournal(data []byte) (recs []journalRec, tornTail bool) {
	off := 0
	for off+recSize <= len(data) {
		rec := data[off : off+recSize]
		if string(rec[:4]) != recMagic ||
			crc64.Checksum(rec[:28], crcTable) != readU64(rec[28:]) {
			return recs, true
		}
		recs = append(recs, journalRec{
			Seq:    readU64(rec[4:]),
			Size:   readU64(rec[12:]),
			ImgCRC: readU64(rec[20:]),
			Offset: off,
		})
		off += recSize
	}
	return recs, off != len(data)
}

// ErrNoSnapshot reports that recovery found nothing restorable: an
// empty store, or one where every snapshot is damaged.
var ErrNoSnapshot = errors.New("snap: no valid snapshot to restore")

// Store is a snapshot store over an FS. All methods are safe for
// concurrent use; commits are serialized.
type Store struct {
	mu     sync.Mutex
	fs     FS
	seq    uint64
	inited bool
	// Tel, when non-nil, counts commits, bytes, and recovery anomalies
	// into shared registry handles. Set it before traffic; all fields
	// are nil-safe.
	Tel *Telemetry
}

// Telemetry is the store's instrumentation bundle.
type Telemetry struct {
	Commits     *telemetry.Counter // commits that reached full durability
	CommitErrs  *telemetry.Counter // commits that died partway
	CommitBytes *telemetry.Counter // image bytes durably committed
	Recoveries  *telemetry.Counter // recovery passes run
	// Anomalies is labeled by anomaly kind (journal-torn-tail,
	// torn-temp, unjournaled-snapshot, ...) plus the pseudo-kind
	// "snapshot-corrupt" for files that fail classification.
	Anomalies *telemetry.CounterVec
}

// NewTelemetry resolves the store's instrumentation bundle against
// reg under the canonical pacstack_snap_* family names. Handles are
// shared: any number of stores may point at one bundle.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	return &Telemetry{
		Commits:     reg.Counter("pacstack_snap_commits_total", "store commits that reached full durability"),
		CommitErrs:  reg.Counter("pacstack_snap_commit_errors_total", "store commits that died partway"),
		CommitBytes: reg.Counter("pacstack_snap_commit_bytes_total", "image bytes durably committed"),
		Recoveries:  reg.Counter("pacstack_snap_recoveries_total", "recovery passes run"),
		Anomalies:   reg.CounterVec("pacstack_snap_anomalies_total", "recovery findings by kind", "kind"),
	}
}

// NewStore returns a store over fs. Existing snapshots and journal
// content are picked up lazily on the first Commit or Recover.
func NewStore(fs FS) *Store { return &Store{fs: fs} }

// FS returns the store's filesystem, for fault injection and tests.
func (s *Store) FS() FS { return s.fs }

// Heal revives crashed MemFS-backed storage (a no-op on other FS
// implementations): the respawn path calls it before recovery,
// because the disk outlives the machine that died writing to it.
func (s *Store) Heal() {
	if h, ok := s.fs.(interface{ Heal() }); ok {
		h.Heal()
	}
}

// initSeq derives the next sequence number from whatever is already
// in the store (files and journal both, so a crash cannot reuse a
// sequence number). Callers hold s.mu.
func (s *Store) initSeq() error {
	if s.inited {
		return nil
	}
	names, err := s.fs.List()
	if err != nil {
		return err
	}
	var max uint64
	for _, n := range names {
		base := n
		if strings.HasPrefix(base, tmpPrefix) {
			base = snapPrefix + strings.TrimPrefix(base, tmpPrefix)
		}
		if seq, ok := parseSnapName(base); ok && seq > max {
			max = seq
		}
	}
	if data, err := s.fs.ReadFile(journalName); err == nil {
		recs, _ := parseJournal(data)
		for _, r := range recs {
			if r.Seq > max {
				max = r.Seq
			}
		}
	}
	s.seq = max
	s.inited = true
	return nil
}

// Commit durably stores one encoded snapshot image and returns its
// sequence number. On any error — including a simulated crash — the
// store is left for Recover to classify; the sequence number is
// burned either way, so a half-landed commit can never alias a later
// one.
func (s *Store) Commit(img []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.initSeq(); err != nil {
		return 0, err
	}
	s.seq++
	seq := s.seq
	tmp, final := tmpName(seq), snapName(seq)

	// 1-2. Write the full image to a temp name and make it durable.
	if err := s.fs.WriteFile(tmp, img); err != nil {
		return seq, s.commitErr(fmt.Errorf("snap: commit %d: writing temp: %w", seq, err))
	}
	if err := s.fs.Sync(tmp); err != nil {
		return seq, s.commitErr(fmt.Errorf("snap: commit %d: syncing temp: %w", seq, err))
	}
	// 3-4. Atomically give it its final name and make the rename
	// durable.
	if err := s.fs.Rename(tmp, final); err != nil {
		return seq, s.commitErr(fmt.Errorf("snap: commit %d: rename: %w", seq, err))
	}
	if err := s.fs.SyncDir(); err != nil {
		return seq, s.commitErr(fmt.Errorf("snap: commit %d: syncing directory: %w", seq, err))
	}
	// 5-6. Journal the commit and make the record durable.
	crc, ok := ImageCRC(img)
	if !ok {
		return seq, s.commitErr(fmt.Errorf("snap: commit %d: image too short to carry a checksum", seq))
	}
	if err := s.fs.Append(journalName, encodeRec(seq, uint64(len(img)), crc)); err != nil {
		return seq, s.commitErr(fmt.Errorf("snap: commit %d: journal append: %w", seq, err))
	}
	if err := s.fs.Sync(journalName); err != nil {
		return seq, s.commitErr(fmt.Errorf("snap: commit %d: syncing journal: %w", seq, err))
	}
	if t := s.Tel; t != nil {
		t.Commits.Inc()
		t.CommitBytes.Add(uint64(len(img)))
	}
	return seq, nil
}

// commitErr counts a failed commit and passes the error through.
func (s *Store) commitErr(err error) error {
	if s.Tel != nil {
		s.Tel.CommitErrs.Inc()
	}
	return err
}

// CommitProcess checkpoints a live process, which executes img, and
// commits it.
func (s *Store) CommitProcess(p *kernel.Process, img *compile.Image) (uint64, error) {
	raw, err := Encode(p.Checkpoint(), img)
	if err != nil {
		return 0, err
	}
	return s.Commit(raw)
}

// Class is the recovery classification of one snapshot file.
type Class int

const (
	// ClassValid: decoded, checksum verified, journal consistent, and
	// the newest such — this is what restores.
	ClassValid Class = iota
	// ClassStale: fully valid but superseded by a newer valid
	// snapshot.
	ClassStale
	// ClassCorrupt: damage detected — checksum mismatch, truncation,
	// malformed structure, or disagreement with the journal.
	ClassCorrupt
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassValid:
		return "valid"
	case ClassStale:
		return "stale"
	case ClassCorrupt:
		return "corrupt-detected"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// SnapshotRecord is one classified snapshot in a recovery report.
type SnapshotRecord struct {
	Name   string `json:"name"`
	Seq    uint64 `json:"seq"`
	Class  string `json:"class"`
	Detail string `json:"detail,omitempty"`
}

// Anomaly is storage evidence of a crash or fault that is not itself
// a snapshot file: a torn journal tail, a leftover temp file, a
// journal record whose snapshot never landed. Every anomaly counts as
// a detection.
type Anomaly struct {
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// RecoveryReport is the full account of one recovery pass.
type RecoveryReport struct {
	Snapshots      []SnapshotRecord `json:"snapshots"`
	Anomalies      []Anomaly        `json:"anomalies,omitempty"`
	JournalRecords int              `json:"journal_records"`
	Restored       bool             `json:"restored"`
	RestoredSeq    uint64           `json:"restored_seq,omitempty"`
}

// Detected reports whether the pass found any evidence of damage or
// interrupted commits — the storage analogue of OutcomeDetected.
func (r *RecoveryReport) Detected() bool {
	if len(r.Anomalies) > 0 {
		return true
	}
	for _, s := range r.Snapshots {
		if s.Class == ClassCorrupt.String() {
			return true
		}
	}
	return false
}

// Recover scans the store, classifies every snapshot as valid /
// corrupt-detected / stale, and returns the newest valid image
// decoded. Leftover temp files are reported and removed. The report
// is returned even when the error is non-nil; with ErrNoSnapshot the
// report explains what was found and rejected.
func (s *Store) Recover() (*kernel.Checkpoint, *ImageMeta, *RecoveryReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.initSeq(); err != nil {
		return nil, nil, nil, err
	}
	rep := &RecoveryReport{}
	if t := s.Tel; t != nil {
		t.Recoveries.Inc()
		// Count whatever the pass ends up finding, on every return path.
		defer func() {
			for _, a := range rep.Anomalies {
				t.Anomalies.With(a.Kind).Inc()
			}
			for _, sr := range rep.Snapshots {
				if sr.Class == ClassCorrupt.String() {
					t.Anomalies.With("snapshot-corrupt").Inc()
				}
			}
		}()
	}

	var recs []journalRec
	if data, err := s.fs.ReadFile(journalName); err == nil {
		var torn bool
		recs, torn = parseJournal(data)
		if torn {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: "journal-torn-tail", Name: journalName,
				Detail: fmt.Sprintf("valid prefix %d record(s), torn or corrupt bytes follow", len(recs)),
			})
		}
	}
	rep.JournalRecords = len(recs)
	bySeq := make(map[uint64]journalRec, len(recs))
	for _, r := range recs {
		if prev, dup := bySeq[r.Seq]; dup {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: "journal-duplicate-seq", Name: journalName,
				Detail: fmt.Sprintf("sequence %d journaled at offsets %d and %d", r.Seq, prev.Offset, r.Offset),
			})
		}
		bySeq[r.Seq] = r
	}

	names, err := s.fs.List()
	if err != nil {
		return nil, nil, rep, err
	}

	type candidate struct {
		seq  uint64
		cp   *kernel.Checkpoint
		meta *ImageMeta
	}
	var best *candidate
	seen := make(map[uint64]bool)
	for _, name := range names {
		switch {
		case name == journalName:
			continue
		case strings.HasPrefix(name, tmpPrefix):
			// A temp file is a commit that never reached its rename: a
			// torn write or a duplicate-rename race left it behind.
			// Detected, reported, swept.
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: "torn-temp", Name: name,
				Detail: "leftover write-temp from an interrupted commit; removed",
			})
			if err := s.fs.Remove(name); err != nil {
				return nil, nil, rep, err
			}
			continue
		}
		seq, ok := parseSnapName(name)
		if !ok {
			rep.Anomalies = append(rep.Anomalies, Anomaly{Kind: "unknown-file", Name: name})
			continue
		}
		seen[seq] = true
		img, err := s.fs.ReadFile(name)
		if err != nil {
			rep.Snapshots = append(rep.Snapshots, SnapshotRecord{
				Name: name, Seq: seq, Class: ClassCorrupt.String(), Detail: fmt.Sprintf("unreadable: %v", err),
			})
			continue
		}
		if rec, ok := bySeq[seq]; ok {
			crc, crcOK := ImageCRC(img)
			if uint64(len(img)) != rec.Size || !crcOK || crc != rec.ImgCRC {
				rep.Snapshots = append(rep.Snapshots, SnapshotRecord{
					Name: name, Seq: seq, Class: ClassCorrupt.String(),
					Detail: fmt.Sprintf("journal mismatch: journaled %d bytes crc %#x, file has %d bytes", rec.Size, rec.ImgCRC, len(img)),
				})
				continue
			}
		}
		cp, meta, err := Decode(img)
		if err != nil {
			rep.Snapshots = append(rep.Snapshots, SnapshotRecord{
				Name: name, Seq: seq, Class: ClassCorrupt.String(), Detail: err.Error(),
			})
			continue
		}
		rec := SnapshotRecord{Name: name, Seq: seq, Class: ClassStale.String()}
		if _, journaled := bySeq[seq]; !journaled {
			// Fully durable but unjournaled: the crash hit between the
			// directory fsync and the journal append. The image is
			// self-checking, so it is restorable — and the gap itself is
			// crash evidence worth reporting.
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: "unjournaled-snapshot", Name: name,
				Detail: "snapshot durable but its journal record never landed",
			})
		}
		rep.Snapshots = append(rep.Snapshots, rec)
		if best == nil || seq > best.seq {
			best = &candidate{seq: seq, cp: cp, meta: meta}
		}
	}
	for seq, r := range bySeq {
		if !seen[seq] {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: "missing-snapshot", Name: snapName(seq),
				Detail: fmt.Sprintf("journaled (%d bytes, crc %#x) but absent", r.Size, r.ImgCRC),
			})
		}
	}

	sort.Slice(rep.Snapshots, func(i, j int) bool { return rep.Snapshots[i].Seq < rep.Snapshots[j].Seq })
	sort.Slice(rep.Anomalies, func(i, j int) bool {
		if rep.Anomalies[i].Kind != rep.Anomalies[j].Kind {
			return rep.Anomalies[i].Kind < rep.Anomalies[j].Kind
		}
		return rep.Anomalies[i].Name < rep.Anomalies[j].Name
	})

	if best == nil {
		return nil, nil, rep, ErrNoSnapshot
	}
	for i := range rep.Snapshots {
		if rep.Snapshots[i].Seq == best.seq && rep.Snapshots[i].Class == ClassStale.String() {
			rep.Snapshots[i].Class = ClassValid.String()
		}
	}
	rep.Restored = true
	rep.RestoredSeq = best.seq
	return best.cp, best.meta, rep, nil
}

// RestoreProcess recovers the newest valid snapshot from the store
// and resurrects it as a live process: the image is booted fresh (so
// syscall and CFI bindings are re-installed from the binary, not from
// storage) and then overwritten with the checkpointed state. The
// snapshot must have been taken under the same program — the embedded
// text checksum is verified before anything restores.
func RestoreProcess(st *Store, img *compile.Image, k *kernel.Kernel) (*kernel.Process, *RecoveryReport, error) {
	cp, meta, rep, err := st.Recover()
	if err != nil {
		return nil, rep, err
	}
	_, progCRC, err := img.Text()
	if err != nil {
		return nil, rep, err
	}
	if meta.ProgCRC != progCRC || meta.ProgBase != img.Prog.Base {
		return nil, rep, fmt.Errorf("%w: snapshot was taken under a different program (base %#x crc %#x, image has base %#x crc %#x)",
			ErrCorrupt, meta.ProgBase, meta.ProgCRC, img.Prog.Base, progCRC)
	}
	p, err := img.Boot(k)
	if err != nil {
		return nil, rep, err
	}
	if err := p.Restore(cp); err != nil {
		return nil, rep, err
	}
	return p, rep, nil
}
