// Package lake evolves the pack-file archive into a small data lake: an
// append-only commit journal is the single source of truth over a set of
// immutable container files, so the store supports snapshot reads pinned
// to any commit ("the catalog as of commit N"), background compaction of
// small containers into large time-sorted ones, and retention-driven
// garbage collection that can prove it never deletes bytes a live or
// pinned view still references.
//
// This is the storage answer to the paper's moving-target problem (§3.1):
// data formats, calibration and analysis routines change constantly, so a
// scientific repository must be able to reprocess old observations against
// the archive *as it was* — HepData's and SDSS's archive reinventions both
// rest on exactly this kind of versioned, evolvable bulk tier.
//
// Layout under the lake root:
//
//	journal.ljn      append-only LJN1 commit records (source of truth)
//	HEAD.lake        last acknowledged commit, published by tmp+sync+rename
//	containers/      immutable container files (c0000000001.ctr, ...)
//
// Durability discipline, in commit order:
//
//  1. container bytes are written and fsynced BEFORE the journal record
//     that references them — a crash in between leaves an orphaned
//     container, never a record pointing at missing bytes;
//  2. the journal record is appended and fsynced — this is the
//     acknowledgement point;
//  3. the head pointer is republished (tmp + sync + rename). The pointer
//     is advisory — recovery replays the journal — but it detects the one
//     failure replay alone cannot: a journal that silently lost
//     acknowledged records looks like a torn tail until the head pointer
//     says the tail was acknowledged.
//
// History is never rewritten: compaction adds a merged container and
// logically removes its victims under a new commit, and only GC — bounded
// by the retention horizon and the durable pin set — ever deletes a
// container file, and only one that no openable or pinned commit
// references.
package lake

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/minidb"
)

// VFS is the filesystem seam under the lake — the same interface the
// database engine and the archive tier use, so one fault-injecting
// implementation (internal/fault) tortures all three in one workload.
type VFS = minidb.VFS

const (
	journalName  = "journal.ljn"
	headName     = "HEAD.lake"
	containerDir = "containers"
)

// Errors reported by the lake.
var (
	ErrNotFound = errors.New("lake: file not found")
	ErrExists   = errors.New("lake: file already live (file data is read only)")
	ErrCorrupt  = errors.New("lake: checksum mismatch")
	// ErrHorizon rejects OpenAt below the GC horizon: those commits'
	// containers may already be deleted.
	ErrHorizon = errors.New("lake: commit is below the GC horizon")
)

// BatchFile is one member of a StoreBatch. Day is the mission-day
// partition key; the compactor sorts merged containers by (Day, Rel) so
// bulk reprocessing of a time range touches few containers.
type BatchFile struct {
	Rel  string
	Day  int64
	Data []byte
}

// memberRef locates one live member: the container holding it plus its
// member entry.
type memberRef struct {
	path string
	m    Member
}

// ctrState is the lifecycle of one container across the journal:
// [addSeq, removeSeq) is the half-open commit interval in which views see
// it; gcSeq is the commit that physically deleted it (0 = file exists).
type ctrState struct {
	members   []Member
	bytes     int64
	addSeq    uint64
	removeSeq uint64
	gcSeq     uint64
}

// Stats are the lake's monotonic activity counters.
type Stats struct {
	Commits         atomic.Int64
	Ingests         atomic.Int64
	Deletes         atomic.Int64
	Compactions     atomic.Int64
	GCRuns          atomic.Int64
	AsOfOpens       atomic.Int64
	AsOfReads       atomic.Int64
	BytesReclaimed  atomic.Int64
	HeadPublishErrs atomic.Int64
}

// Status is a point-in-time snapshot of the lake for /stats and tests.
type Status struct {
	Head            uint64
	Horizon         uint64
	LiveFiles       int
	LiveBytes       int64
	PhysBytes       int64
	ContainersLive  int
	ContainersTotal int // journaled and not yet physically deleted
	JournalBytes    int64
	Pins            int
	Commits         int64
	Compactions     int64
	GCRuns          int64
	BytesReclaimed  int64
}

// Lake is one journal-backed container store.
type Lake struct {
	fsys VFS
	root string

	mu      sync.Mutex
	records []*Record // replayed records above the horizon, oldest first

	// The base view materializes every record at or below the GC horizon:
	// baseCtrs/baseMembers are the containers and live members as of
	// baseSeq. OpenAt rejects commits below the horizon, so a view only
	// ever needs base + the retained tail — records below the horizon are
	// folded in and dropped, keeping memory and view resolution bounded on
	// a long-lived node instead of growing with all-time commit count.
	baseSeq     uint64
	baseCtrs    map[string]Container
	baseMembers map[string]memberRef

	head    uint64
	horizon uint64
	ctrs     map[string]*ctrState
	live     map[string]memberRef
	pins     map[string]uint64 // pin token -> pinned commit
	pending  map[string]bool   // rels reserved by an in-flight StoreBatch
	unswept  map[string]bool   // gc'd containers whose file removal failed
	nextCtr  int64
	nextPin  int64
	tailSize int64 // journal bytes holding exactly the replayed records
	liveB    int64
	physB    int64

	clock func() int64

	stats Stats
}

// Open loads (or creates) the lake rooted at dir.
func Open(fsys VFS, dir string) (*Lake, error) {
	l := &Lake{
		fsys:        fsys,
		root:        dir,
		baseCtrs:    make(map[string]Container),
		baseMembers: make(map[string]memberRef),
		ctrs:        make(map[string]*ctrState),
		live:        make(map[string]memberRef),
		pins:        make(map[string]uint64),
		pending:     make(map[string]bool),
		unswept:     make(map[string]bool),
		nextCtr:     1,
		clock:       func() int64 { return time.Now().UnixNano() },
	}
	if err := fsys.MkdirAll(filepath.Join(dir, containerDir), 0o755); err != nil {
		return nil, err
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	return l, nil
}

// load replays the journal, validates it against the head pointer, repairs
// a torn tail, and finishes any interrupted GC deletion.
func (l *Lake) load() error {
	data, err := l.fsys.ReadFile(l.journalPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	records, goodTail, err := DecodeJournal(data)
	if err != nil {
		return err
	}
	ackedHead, err := l.readHead()
	if err != nil {
		return err
	}
	if ackedHead > uint64(len(records)) {
		// The pointer was published strictly after its record's fsync, so
		// an acknowledged record is missing: this is NOT a torn tail.
		return &CorruptError{Reason: fmt.Sprintf(
			"head pointer says commit %d was acknowledged but journal replays only %d",
			ackedHead, len(records))}
	}
	for _, r := range records {
		l.apply(r)
	}
	l.tailSize = goodTail
	if int64(len(data)) > goodTail {
		// Repair the torn tail so future appends extend a clean journal.
		if err := l.truncateJournal(goodTail); err != nil {
			return err
		}
	}
	if l.head > ackedHead {
		// Crash between journal fsync and pointer publish: republish.
		if err := l.publishHead(); err != nil {
			return err
		}
	}
	// Drop a head-pointer tmp stranded by a crash mid-publish; the next
	// publishHead rewrites it from scratch anyway.
	if err := l.fsys.Remove(l.headPath() + ".tmp"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	// Finish any GC whose journal record landed but whose file deletions
	// were interrupted; also retry previously failed sweeps.
	for path, cs := range l.ctrs {
		if cs.gcSeq != 0 {
			if err := l.fsys.Remove(filepath.Join(l.root, path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				l.unswept[path] = true
			}
		}
	}
	return nil
}

func (l *Lake) journalPath() string { return filepath.Join(l.root, journalName) }
func (l *Lake) headPath() string    { return filepath.Join(l.root, headName) }

func containerPath(n int64) string {
	return containerDir + "/" + fmt.Sprintf("c%010d.ctr", n)
}

// containerSeqOf extracts the sequence number from a container path,
// returning -1 for foreign names.
func containerSeqOf(p string) int64 {
	base := strings.TrimPrefix(p, containerDir+"/")
	if base == p || !strings.HasPrefix(base, "c") || !strings.HasSuffix(base, ".ctr") {
		return -1
	}
	n, err := strconv.ParseInt(base[1:len(base)-len(".ctr")], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// apply folds one record into the in-memory state. Caller holds l.mu (or
// is load, before the lake is shared). Order within a commit: removes
// leave the view first, adds enter, tombstones drop members — so a
// compaction commit atomically replaces its victims' members with the
// merged container's.
func (l *Lake) apply(r *Record) {
	switch r.Kind {
	case KindGC:
		l.horizon = r.Horizon
		for _, p := range r.Removes {
			if cs := l.ctrs[p]; cs != nil && cs.gcSeq == 0 {
				cs.gcSeq = r.Seq
				l.physB -= cs.bytes
				l.stats.BytesReclaimed.Add(cs.bytes)
			}
		}
	case KindPin:
		l.pins[r.PinToken] = r.PinSeq
		if n := pinSeqOf(r.PinToken); n >= l.nextPin {
			l.nextPin = n + 1
		}
	case KindUnpin:
		delete(l.pins, r.PinToken)
	default:
		for _, p := range r.Removes {
			cs := l.ctrs[p]
			if cs == nil || cs.removeSeq != 0 {
				continue
			}
			cs.removeSeq = r.Seq
			for _, m := range cs.members {
				if ref, ok := l.live[m.Rel]; ok && ref.path == p {
					delete(l.live, m.Rel)
					l.liveB -= m.Size
				}
			}
		}
		for _, c := range r.Adds {
			cs := &ctrState{members: c.Members, addSeq: r.Seq}
			for _, m := range c.Members {
				if m.Off+m.Size > cs.bytes {
					cs.bytes = m.Off + m.Size
				}
			}
			l.ctrs[c.Path] = cs
			l.physB += cs.bytes
			for _, m := range c.Members {
				if old, ok := l.live[m.Rel]; ok {
					l.liveB -= old.m.Size
				}
				l.live[m.Rel] = memberRef{path: c.Path, m: m}
				l.liveB += m.Size
			}
			if n := containerSeqOf(c.Path); n >= l.nextCtr {
				l.nextCtr = n + 1
			}
		}
		for _, rel := range r.Tombstones {
			if ref, ok := l.live[rel]; ok {
				delete(l.live, rel)
				l.liveB -= ref.m.Size
			}
		}
	}
	l.head = r.Seq
	l.records = append(l.records, r)
	if r.Kind == KindGC {
		l.pruneBelowHorizon()
	}
}

// pruneBelowHorizon folds retained records at or below the GC horizon
// into the base view and drops them from memory. Pin and GC records fold
// to nothing here: their durable effects (l.pins, horizon, gcSeq) live in
// state that replay already updated. Caller holds l.mu (or is load).
func (l *Lake) pruneBelowHorizon() {
	cut := 0
	for cut < len(l.records) && l.records[cut].Seq <= l.horizon {
		r := l.records[cut]
		cut++
		l.baseSeq = r.Seq
		switch r.Kind {
		case KindGC, KindPin, KindUnpin:
			continue
		}
		for _, p := range r.Removes {
			c, ok := l.baseCtrs[p]
			if !ok {
				continue
			}
			delete(l.baseCtrs, p)
			for _, m := range c.Members {
				if ref, ok := l.baseMembers[m.Rel]; ok && ref.path == p {
					delete(l.baseMembers, m.Rel)
				}
			}
		}
		for _, c := range r.Adds {
			l.baseCtrs[c.Path] = c
			for _, m := range c.Members {
				l.baseMembers[m.Rel] = memberRef{path: c.Path, m: m}
			}
		}
		for _, rel := range r.Tombstones {
			delete(l.baseMembers, rel)
		}
	}
	if cut > 0 {
		l.records = append([]*Record(nil), l.records[cut:]...)
	}
}

func pinSeqOf(token string) int64 {
	if !strings.HasPrefix(token, "pin-") {
		return -1
	}
	n, err := strconv.ParseInt(token[len("pin-"):], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// --- journal append and head pointer --------------------------------------

// truncateJournal drops journal bytes past size.
func (l *Lake) truncateJournal(size int64) error {
	f, err := l.fsys.OpenAppend(l.journalPath(), 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readHead parses the head pointer file ("LHD1 <seq>\n"); 0 if absent.
func (l *Lake) readHead() (uint64, error) {
	data, err := l.fsys.ReadFile(l.headPath())
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var seq uint64
	if _, err := fmt.Sscanf(string(data), "LHD1 %d", &seq); err != nil {
		return 0, &CorruptError{Reason: fmt.Sprintf("malformed head pointer %q", data)}
	}
	return seq, nil
}

// publishHead writes the head pointer atomically: tmp + sync + rename.
func (l *Lake) publishHead() error {
	tmp := l.headPath() + ".tmp"
	if err := l.writeFileSync(tmp, []byte(fmt.Sprintf("LHD1 %d\n", l.head))); err != nil {
		return err
	}
	return l.fsys.Rename(tmp, l.headPath())
}

// writeFileSync creates abs with data and forces it to stable storage.
// Containers are written read-only (0444, file data is immutable), so a
// crash-orphaned file of a reused name must be unlinked first: Create
// alone would fail with EACCES on the 0444 leftover for non-root users,
// wedging exactly the recovery paths that rely on overwriting orphans.
func (l *Lake) writeFileSync(abs string, data []byte) error {
	if err := l.fsys.Remove(abs); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f, err := l.fsys.Create(abs, 0o444)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit seals one record: append + fsync the journal (the acknowledgement
// point), fold into memory, then republish the head pointer best-effort
// (it is advisory and self-healing; a failed publish is counted and
// repaired by the next commit or the next Open). Caller holds l.mu. The
// record's Seq and Time are assigned here.
func (l *Lake) commit(r *Record) error {
	r.Seq = l.head + 1
	r.Time = l.clock()
	frame := encodeRecord(r)

	f, err := l.fsys.OpenAppend(l.journalPath(), 0o644)
	if err != nil {
		return err
	}
	if size, serr := f.Size(); serr != nil {
		f.Close()
		return serr
	} else if size != l.tailSize {
		// A previous append failed after a partial write: restore the
		// known-good tail before extending it.
		if terr := f.Truncate(l.tailSize); terr != nil {
			f.Close()
			return terr
		}
	}
	if _, err = f.Write(frame); err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Truncate(l.tailSize)
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	l.tailSize += int64(len(frame))
	l.apply(r)
	l.stats.Commits.Add(1)
	if err := l.publishHead(); err != nil {
		l.stats.HeadPublishErrs.Add(1)
	}
	return nil
}

// --- store / delete / read ------------------------------------------------

// cleanRel validates a relative member path (no escapes, no absolutes).
func cleanRel(rel string) (string, error) {
	if rel == "" || strings.HasPrefix(rel, "/") {
		return "", fmt.Errorf("lake: invalid path %q", rel)
	}
	c := filepath.ToSlash(filepath.Clean(rel))
	if c == "." || strings.HasPrefix(c, "..") || strings.HasPrefix(c, containerDir+"/") {
		return "", fmt.Errorf("lake: path %q escapes the member namespace", rel)
	}
	return c, nil
}

// StoreBatch stores a group of new files as ONE container plus ONE journal
// commit: per-group data fsync, journal fsync, head publish. Members are
// write-once while live — re-storing a rel is allowed only after a Delete
// tombstoned it. Returns the commit sequence.
func (l *Lake) StoreBatch(files []BatchFile) (uint64, error) {
	if len(files) == 0 {
		return 0, fmt.Errorf("lake: empty batch")
	}
	members := make([]Member, len(files))
	var total int64

	// Phase 1 (locked): validate, reserve paths and the container name.
	l.mu.Lock()
	for i, f := range files {
		rel, err := cleanRel(f.Rel)
		if err != nil {
			l.mu.Unlock()
			return 0, err
		}
		if _, ok := l.live[rel]; ok {
			l.mu.Unlock()
			return 0, fmt.Errorf("%w: %s", ErrExists, rel)
		}
		if l.pending[rel] {
			l.mu.Unlock()
			return 0, fmt.Errorf("%w: %s (store in flight)", ErrExists, rel)
		}
		for j := 0; j < i; j++ {
			if members[j].Rel == rel {
				l.mu.Unlock()
				return 0, fmt.Errorf("%w: %s duplicated in batch", ErrExists, rel)
			}
		}
		members[i] = Member{Rel: rel, Day: f.Day, Off: total, Size: int64(len(f.Data))}
		total += int64(len(f.Data))
	}
	for i := range members {
		l.pending[members[i].Rel] = true
	}
	ctrRel := containerPath(l.nextCtr)
	l.nextCtr++
	l.mu.Unlock()

	release := func() {
		l.mu.Lock()
		for i := range members {
			delete(l.pending, members[i].Rel)
		}
		l.mu.Unlock()
	}

	// Phase 2 (unlocked): write and fsync the container. The reservation
	// guarantees nobody else touches these rels, and the name counter
	// guarantees freshness (a crash-orphaned container of the same name is
	// unreferenced and safe to overwrite).
	blob := make([]byte, 0, total)
	for i, f := range files {
		members[i].CRC = crc32Sum(f.Data)
		blob = append(blob, f.Data...)
	}
	if err := l.writeFileSync(filepath.Join(l.root, ctrRel), blob); err != nil {
		release()
		_ = l.fsys.Remove(filepath.Join(l.root, ctrRel))
		return 0, err
	}

	// Phase 3 (locked): seal the commit.
	l.mu.Lock()
	err := l.commit(&Record{Kind: KindIngest, Adds: []Container{{Path: ctrRel, Members: members}}})
	seq := l.head
	for i := range members {
		delete(l.pending, members[i].Rel)
	}
	l.mu.Unlock()
	if err != nil {
		_ = l.fsys.Remove(filepath.Join(l.root, ctrRel))
		return 0, err
	}
	l.stats.Ingests.Add(1)
	return seq, nil
}

// Store stores one file (a single-member batch).
func (l *Lake) Store(rel string, day int64, data []byte) (uint64, error) {
	return l.StoreBatch([]BatchFile{{Rel: rel, Day: day, Data: data}})
}

// Delete tombstones members out of the live view under one commit. The
// bytes stay readable through older commits until GC passes them. Returns
// the commit sequence.
func (l *Lake) Delete(rels []string) (uint64, error) {
	if len(rels) == 0 {
		return 0, fmt.Errorf("lake: empty delete")
	}
	cleaned := make([]string, len(rels))
	l.mu.Lock()
	for i, rel := range rels {
		c, err := cleanRel(rel)
		if err != nil {
			l.mu.Unlock()
			return 0, err
		}
		if _, ok := l.live[c]; !ok {
			l.mu.Unlock()
			return 0, fmt.Errorf("%w: %s", ErrNotFound, c)
		}
		cleaned[i] = c
	}
	err := l.commit(&Record{Kind: KindDelete, Tombstones: cleaned})
	seq := l.head
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	l.stats.Deletes.Add(1)
	return seq, nil
}

// readMember fetches and verifies one member's bytes. When the VFS can
// hand out a random-access handle (OSFS files implement io.ReaderAt),
// only the member's range is read — without it a member read costs a
// whole-container ReadFile, which turns quadratic once compaction has
// built large containers. Fault-injecting filesystems fall back to the
// ReadFile path, keeping torture semantics unchanged.
func (l *Lake) readMember(ref memberRef) ([]byte, error) {
	m := ref.m
	abs := filepath.Join(l.root, ref.path)
	data, ok, err := l.pread(abs, m.Off, m.Size)
	if !ok {
		var blob []byte
		blob, err = l.fsys.ReadFile(abs)
		if err != nil {
			return nil, err
		}
		if m.Off < 0 || m.Off+m.Size > int64(len(blob)) {
			return nil, fmt.Errorf("%w: %s (container %s truncated)", ErrCorrupt, m.Rel, ref.path)
		}
		data = blob[m.Off : m.Off+m.Size]
	} else if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %s (container %s truncated)", ErrCorrupt, m.Rel, ref.path)
		}
		return nil, err
	}
	if crc32Sum(data) != m.CRC {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, m.Rel)
	}
	return data, nil
}

// pread reads [off, off+size) of abs through the VFS's optional
// random-access capability. ok=false means the capability is absent and
// the caller must fall back to ReadFile.
func (l *Lake) pread(abs string, off, size int64) ([]byte, bool, error) {
	o, hasOpen := l.fsys.(interface {
		Open(path string) (io.ReadCloser, error)
	})
	if !hasOpen || off < 0 || size < 0 {
		return nil, false, nil
	}
	rc, err := o.Open(abs)
	if err != nil {
		return nil, true, err
	}
	defer rc.Close()
	ra, isRA := rc.(io.ReaderAt)
	if !isRA {
		return nil, false, nil
	}
	buf := make([]byte, size)
	if _, err := ra.ReadAt(buf, off); err != nil {
		return nil, true, err
	}
	return buf, true, nil
}

// Read returns a live member's verified bytes. The read is optimistic: the
// member is resolved under the lock, read outside it, and re-resolved once
// if a racing compact+GC deleted the container between the two.
func (l *Lake) Read(rel string) ([]byte, error) {
	rel, err := cleanRel(rel)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		l.mu.Lock()
		ref, ok := l.live[rel]
		l.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, rel)
		}
		data, err := l.readMember(ref)
		if err == nil || attempt == 1 {
			return data, err
		}
	}
}

// Exists reports whether rel is live at the head commit.
func (l *Lake) Exists(rel string) bool {
	rel, err := cleanRel(rel)
	if err != nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.live[rel]
	return ok
}

// Stat returns a live member's size.
func (l *Lake) Stat(rel string) (int64, error) {
	rel, err := cleanRel(rel)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, ok := l.live[rel]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, rel)
	}
	return ref.m.Size, nil
}

// List returns the live member paths in sorted order.
func (l *Lake) List() []string {
	l.mu.Lock()
	out := make([]string, 0, len(l.live))
	for rel := range l.live {
		out = append(out, rel)
	}
	l.mu.Unlock()
	sort.Strings(out)
	return out
}

// Len returns the number of live members.
func (l *Lake) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}

// LiveBytes is the byte total of the live view; PhysBytes the byte total
// of every container file still on disk (history included).
func (l *Lake) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.liveB
}

// PhysBytes returns the on-disk container byte total.
func (l *Lake) PhysBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.physB
}

// Head returns the last acknowledged commit; Horizon the oldest openable
// one.
func (l *Lake) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Horizon returns the oldest still-openable commit.
func (l *Lake) Horizon() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.horizon
}

// Status snapshots the lake's shape.
func (l *Lake) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		Head: l.head, Horizon: l.horizon,
		LiveFiles: len(l.live), LiveBytes: l.liveB, PhysBytes: l.physB,
		JournalBytes: l.tailSize, Pins: len(l.pins),
		Commits:     l.stats.Commits.Load(),
		Compactions: l.stats.Compactions.Load(),
		GCRuns:      l.stats.GCRuns.Load(),
		BytesReclaimed: l.stats.BytesReclaimed.Load(),
	}
	for _, cs := range l.ctrs {
		if cs.gcSeq == 0 {
			st.ContainersTotal++
			if cs.removeSeq == 0 {
				st.ContainersLive++
			}
		}
	}
	return st
}

// Verify re-reads every live member against its checksum and returns the
// paths that fail.
func (l *Lake) Verify() []string {
	var bad []string
	for _, rel := range l.List() {
		if _, err := l.Read(rel); err != nil {
			bad = append(bad, rel)
		}
	}
	return bad
}

// SetClock overrides the record timestamp source (deterministic tests).
func (l *Lake) SetClock(fn func() int64) { l.clock = fn }
