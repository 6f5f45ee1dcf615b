package lake

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// Compaction merges small or mostly-dead containers into one large
// time-sorted container under a single journal commit. History is never
// rewritten: the victims stay readable through every commit before the
// compaction commit, and only GC later deletes their files. The protocol
// is crash-recoverable at every step:
//
//	plan    (locked)   pick victims, reserve the output container name
//	write   (unlocked) read victim bytes, write + fsync the merged container
//	commit  (locked)   re-validate each member is STILL live and still
//	                   served by its victim, then append one KindCompact
//	                   record adding the merged container and removing the
//	                   victims
//
// A crash before the commit leaves an orphaned output container that the
// journal never references — harmless, overwritten when its name is
// reused (names come from the journal-replayed counter). A crash after
// the commit is a complete compaction. The re-validation closes the race
// with deletes and concurrent ingest: a member tombstoned between plan
// and commit is simply not carried into the merged container, so
// compaction can never resurrect deleted data.
//
// The commit also re-validates the opposite direction: a victim leaves
// the view only if every member still live and served by it was read
// whole (CRC-verified) into the merged container. A victim whose bytes
// could not be read — I/O failure, truncation, checksum mismatch — stays
// in the view untouched and the round reports the failure, because
// removing it would silently drop its live members and let GC delete
// bytes the live view still references.

// CompactOptions tune victim selection.
type CompactOptions struct {
	// SmallBytes marks a container as a merge candidate when its live
	// byte count is below this threshold.
	SmallBytes int64
	// DeadFraction marks a container whose dead (tombstoned or
	// superseded) byte fraction is at or above this threshold.
	DeadFraction float64
	// MinMerge is the fewest victims worth one merged container.
	MinMerge int
	// MaxMerge bounds one compaction round.
	MaxMerge int
}

// DefaultCompactOptions is the maintenance-loop tuning.
func DefaultCompactOptions() CompactOptions {
	return CompactOptions{SmallBytes: 1 << 20, DeadFraction: 0.5, MinMerge: 2, MaxMerge: 64}
}

func (o *CompactOptions) withDefaults() CompactOptions {
	out := *o
	if out.SmallBytes <= 0 {
		out.SmallBytes = 1 << 20
	}
	if out.DeadFraction <= 0 {
		out.DeadFraction = 0.5
	}
	if out.MinMerge < 2 {
		out.MinMerge = 2
	}
	if out.MaxMerge < out.MinMerge {
		out.MaxMerge = 64
	}
	return out
}

// CompactResult reports one compaction round.
type CompactResult struct {
	Merged    int    // victim containers removed from the view
	Members   int    // live members carried into the merged container
	Skipped   int    // victims left in place: live members unreadable
	Seq       uint64 // the compaction commit (0 when nothing was done)
	OutBytes  int64
	Container string
}

// liveByCtr returns, per live container path, the live members it serves.
// Caller holds l.mu.
func (l *Lake) liveByCtr() map[string][]Member {
	by := make(map[string][]Member)
	for _, ref := range l.live {
		by[ref.path] = append(by[ref.path], ref.m)
	}
	return by
}

// Compact runs one compaction round. Concurrent Compact calls are safe —
// the commit-time re-validation makes the loser a no-op for any member the
// winner moved first — but the background compactor serializes them
// anyway.
func (l *Lake) Compact(opts CompactOptions) (CompactResult, error) {
	o := opts.withDefaults()

	// Plan (locked): pick victims — live containers that are small or
	// mostly dead — and reserve the output name.
	l.mu.Lock()
	by := l.liveByCtr()
	type cand struct {
		path string
		live int64
	}
	var cands []cand
	for path, cs := range l.ctrs {
		if cs.removeSeq != 0 {
			continue // already out of the view
		}
		var liveBytes int64
		for _, m := range by[path] {
			liveBytes += m.Size
		}
		dead := float64(cs.bytes-liveBytes) / float64(max64(cs.bytes, 1))
		if liveBytes == 0 && cs.bytes > 0 {
			// Fully dead: no merge needed, a remove-only compaction entry
			// still wants it out of the view so GC can reach it.
			cands = append(cands, cand{path: path, live: 0})
			continue
		}
		if liveBytes < o.SmallBytes || dead >= o.DeadFraction {
			cands = append(cands, cand{path: path, live: liveBytes})
		}
	}
	if len(cands) < o.MinMerge {
		// A remove-only round needs no merge partner: retiring containers
		// with no live members must not wait for MinMerge, or a lone
		// fully-dead container would linger forever and GC could never
		// reclaim its bytes.
		var deadOnly []cand
		for _, c := range cands {
			if len(by[c.path]) == 0 {
				deadOnly = append(deadOnly, c)
			}
		}
		if len(deadOnly) == 0 {
			l.mu.Unlock()
			return CompactResult{}, nil
		}
		cands = deadOnly
	}
	// Oldest (smallest container seq) first: compaction drains the long
	// tail of tiny early containers before touching recent ones.
	sort.Slice(cands, func(i, j int) bool {
		return containerSeqOf(cands[i].path) < containerSeqOf(cands[j].path)
	})
	if len(cands) > o.MaxMerge {
		cands = cands[:o.MaxMerge]
	}
	victims := make([]string, len(cands))
	planned := make(map[string][]Member, len(cands))
	for i, c := range cands {
		victims[i] = c.path
		planned[c.path] = by[c.path]
	}
	outRel := containerPath(l.nextCtr)
	l.nextCtr++
	l.mu.Unlock()

	// Write (unlocked): read victim bytes, lay members out sorted by
	// (Day, Rel) so a time-range reprocessing scan is one contiguous read.
	type moved struct {
		m    Member
		from string
		data []byte
	}
	var moves []moved
	// got records which planned members were read whole per victim;
	// readErr the first failure. The commit phase decides what a failure
	// means: a victim retired by a racing compaction is dropped from the
	// record, but a still-live victim with unreadable members must stay in
	// the view, or its members would silently vanish.
	got := make(map[string]map[string]bool, len(victims))
	readErr := make(map[string]error, len(victims))
	for _, path := range victims {
		// One ReadFile per victim container, not one per member: slicing
		// every member out of a single blob keeps a merge of an
		// already-large container linear in its size.
		blob, err := l.fsys.ReadFile(filepath.Join(l.root, path))
		if err != nil {
			readErr[path] = err
			continue
		}
		ok := make(map[string]bool, len(planned[path]))
		for _, m := range planned[path] {
			if m.Off < 0 || m.Off+m.Size > int64(len(blob)) {
				if readErr[path] == nil {
					readErr[path] = fmt.Errorf("%w: %s (container %s truncated)", ErrCorrupt, m.Rel, path)
				}
				continue
			}
			data := blob[m.Off : m.Off+m.Size]
			if crc32Sum(data) != m.CRC {
				if readErr[path] == nil {
					readErr[path] = fmt.Errorf("%w: %s", ErrCorrupt, m.Rel)
				}
				continue
			}
			ok[m.Rel] = true
			moves = append(moves, moved{m: m, from: path, data: data})
		}
		got[path] = ok
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].m.Day != moves[j].m.Day {
			return moves[i].m.Day < moves[j].m.Day
		}
		return moves[i].m.Rel < moves[j].m.Rel
	})

	// Commit (locked): re-validate, build the final layout, write, seal.
	l.mu.Lock()
	// Victims must still be live containers (a racing compaction may have
	// removed some), and — the safety half of the re-validation — every
	// member still live and served by a victim must have been read whole.
	// The live set of an immutable container only shrinks between plan and
	// commit, so checking the planned members covers every commit-time one.
	var stillVictims []string
	var skipped []string
	var cause error
	movable := make(map[string]bool, len(victims))
	for _, path := range victims {
		cs := l.ctrs[path]
		if cs == nil || cs.removeSeq != 0 {
			continue // already out of the view: drop from the record
		}
		whole := true
		for _, m := range planned[path] {
			if ref, ok := l.live[m.Rel]; ok && ref.path == path && !got[path][m.Rel] {
				whole = false
				break
			}
		}
		if !whole {
			skipped = append(skipped, path)
			if cause == nil {
				if cause = readErr[path]; cause == nil {
					cause = ErrCorrupt
				}
			}
			continue
		}
		movable[path] = true
		stillVictims = append(stillVictims, path)
	}
	var members []Member
	var blob []byte
	var off int64
	for _, mv := range moves {
		if !movable[mv.from] {
			continue // the victim stays in the view: leave its members home
		}
		ref, ok := l.live[mv.m.Rel]
		if !ok || ref.path != mv.from {
			continue // deleted or superseded since the plan: do not resurrect
		}
		m := mv.m
		m.Off = off
		members = append(members, m)
		blob = append(blob, mv.data...)
		off += int64(len(mv.data))
	}
	var skipErr error
	if len(skipped) > 0 {
		skipErr = fmt.Errorf("lake: compaction left %d container(s) in the view with unreadable live members (%s): %w",
			len(skipped), strings.Join(skipped, ", "), cause)
	}
	if len(stillVictims) == 0 {
		l.mu.Unlock()
		return CompactResult{Skipped: len(skipped)}, skipErr
	}
	rec := &Record{Kind: KindCompact, Removes: stillVictims}
	if len(members) > 0 {
		// The container write happens under the lock: commit-time layout
		// depends on re-validation, and the lake's containers are small
		// enough (bounded by MaxMerge) that this matches the archive
		// tier's seal discipline.
		if err := l.writeFileSync(filepath.Join(l.root, outRel), blob); err != nil {
			l.mu.Unlock()
			_ = l.fsys.Remove(filepath.Join(l.root, outRel))
			return CompactResult{}, err
		}
		rec.Adds = []Container{{Path: outRel, Members: members}}
	}
	if err := l.commit(rec); err != nil {
		l.mu.Unlock()
		if len(members) > 0 {
			_ = l.fsys.Remove(filepath.Join(l.root, outRel))
		}
		return CompactResult{}, err
	}
	seq := l.head
	l.mu.Unlock()
	l.stats.Compactions.Add(1)
	res := CompactResult{Merged: len(stillVictims), Members: len(members), Skipped: len(skipped), Seq: seq, OutBytes: off}
	if len(members) > 0 {
		res.Container = outRel
	}
	return res, skipErr
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// String renders a compaction result for logs.
func (r CompactResult) String() string {
	if r.Seq == 0 {
		return "compact: no-op"
	}
	s := fmt.Sprintf("compact: commit %d merged %d containers, %d members, %d bytes",
		r.Seq, r.Merged, r.Members, r.OutBytes)
	if r.Skipped > 0 {
		s += fmt.Sprintf(" (%d victims skipped: unreadable live members)", r.Skipped)
	}
	return s
}
