package bench

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/lake"
	"repro/internal/minidb"
)

// Time travel over the commit journal: the lake archive run as an
// experiment rather than a test. A scripted ingest (batched stores with a
// delete churn, like a purge of old days) builds a few hundred
// commits of history; the experiment then measures what the journal
// design actually costs and buys:
//
//   - As-of read latency by commit depth: OpenAt(commitN) replays the
//     first N journal records to materialize the historical member map,
//     so open cost grows with depth while per-read cost should not —
//     pinned reads hit the same container files as head reads.
//   - The compaction win: merging small ingest-batch containers into few
//     large time-sorted ones, then GC'ing the dead history, shrinks both
//     the container population and the physical footprint without
//     touching read results.
//   - Oracle verification: every depth's view is checked bit-identically
//     against a driver-side oracle that recorded the catalog state after
//     each commit. A pin taken at the deepest depth before GC must keep
//     every measured commit openable afterwards (the GC-safety contract).

// TimeTravelParams sizes the experiment.
type TimeTravelParams struct {
	Files     int // files ingested
	FileBytes int // payload size per file
	BatchSize int // files per ingest commit
	DeleteEvy int // every Nth batch deletes one old file (churn)
	Reads     int // member reads measured per depth
	Depths    int // number of as-of depths sampled between horizon and head
}

// DefaultTimeTravelParams is sized to finish in a few seconds while still
// building enough journal history (hundreds of commits) for the depth
// sweep to mean something.
func DefaultTimeTravelParams() TimeTravelParams {
	return TimeTravelParams{
		Files:     1600,
		FileBytes: 2048,
		BatchSize: 8,
		DeleteEvy: 4,
		Reads:     300,
		Depths:    5,
	}
}

// TimeTravelDepth is one as-of depth's measurement.
type TimeTravelDepth struct {
	Commit    uint64  `json:"commit"`
	Behind    uint64  `json:"commits_behind_head"`
	Members   int     `json:"members"`
	OpenMs    float64 `json:"open_ms"`     // OpenAt: journal-prefix replay + durable pin
	ReadP50Us float64 `json:"read_p50_us"` // per-member read through the view
	ReadP95Us float64 `json:"read_p95_us"`
	OracleOK  bool    `json:"oracle_ok"` // bit-identical to the replay oracle
}

// TimeTravelCompaction is the before/after record of one maintenance
// round (compact until quiescent, then GC to the pinned floor).
type TimeTravelCompaction struct {
	ContainersBefore int     `json:"containers_before"`
	ContainersAfter  int     `json:"containers_after"`
	PhysBefore       int64   `json:"phys_bytes_before"`
	PhysAfter        int64   `json:"phys_bytes_after"`
	LiveBytes        int64   `json:"live_bytes"`
	ReadP50UsBefore  float64 `json:"head_read_p50_us_before"`
	ReadP50UsAfter   float64 `json:"head_read_p50_us_after"`
	Merged           int     `json:"containers_merged"`
	Reclaimed        int64   `json:"bytes_reclaimed"`
	CompactMs        float64 `json:"compact_ms"`
	GCMs             float64 `json:"gc_ms"`
}

// TimeTravelResult is the whole experiment.
type TimeTravelResult struct {
	Files        int                  `json:"files"`
	Commits      uint64               `json:"commits"`
	Deletes      int                  `json:"deletes"`
	JournalBytes int64                `json:"journal_bytes"`
	Depths       []TimeTravelDepth    `json:"depths_pre_compaction"`
	PostDepths   []TimeTravelDepth    `json:"depths_post_compaction"`
	Compaction   TimeTravelCompaction `json:"compaction"`
	OracleChecks int                  `json:"oracle_checks"`
	OracleFails  int                  `json:"oracle_failures"`
	TotalElapsed float64              `json:"total_elapsed_s"`
}

// ttOracle is one recorded catalog state: the member CRCs as of a commit.
type ttOracle struct {
	seq  uint64
	crcs map[string]uint32
}

func pctUs(durs []time.Duration, p float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// measureDepth opens the lake as of seq, times the open and p.Reads member
// reads through the view, and checks the result bit-identically against
// the oracle snapshot for that commit.
func measureDepth(lk *lake.Lake, seq uint64, o *ttOracle, p TimeTravelParams, rng *rand.Rand, res *TimeTravelResult) (TimeTravelDepth, error) {
	t0 := time.Now()
	v, err := lk.OpenAt(seq)
	if err != nil {
		return TimeTravelDepth{}, fmt.Errorf("OpenAt(%d): %w", seq, err)
	}
	defer v.Close()
	d := TimeTravelDepth{
		Commit: seq,
		Behind: lk.Head() - seq,
		OpenMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
	}

	rels := v.List()
	d.Members = len(rels)
	var durs []time.Duration
	for i := 0; i < p.Reads && len(rels) > 0; i++ {
		rel := rels[rng.Intn(len(rels))]
		r0 := time.Now()
		if _, err := v.Read(rel); err != nil {
			return d, fmt.Errorf("as-of read %s@%d: %w", rel, seq, err)
		}
		durs = append(durs, time.Since(r0))
	}
	d.ReadP50Us = pctUs(durs, 0.50)
	d.ReadP95Us = pctUs(durs, 0.95)

	// Oracle verification: exact member set, every payload CRC-identical.
	d.OracleOK = true
	res.OracleChecks++
	if len(rels) != len(o.crcs) {
		d.OracleOK = false
	}
	for _, rel := range rels {
		want, ok := o.crcs[rel]
		if !ok {
			d.OracleOK = false
			break
		}
		data, err := v.Read(rel)
		if err != nil || crc32.ChecksumIEEE(data) != want {
			d.OracleOK = false
			break
		}
	}
	if !d.OracleOK {
		res.OracleFails++
	}
	return d, nil
}

// RunTimeTravel executes the experiment against a real on-disk lake. logf
// (optional) narrates progress.
func RunTimeTravel(p TimeTravelParams, logf func(string, ...any)) (*TimeTravelResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	dir, err := os.MkdirTemp("", "hedc-timetravel")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	lk, err := lake.Open(minidb.OSFS, dir)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(42))
	res := &TimeTravelResult{Files: p.Files}

	// Ingest phase: batched stores, with a delete churn that tombstones an
	// old file every DeleteEvy batches (a system remove of an aged file).
	// The oracle records the exact catalog after every commit.
	state := make(map[string]uint32)
	var oracles []ttOracle
	snap := func(seq uint64) {
		crcs := make(map[string]uint32, len(state))
		for k, v := range state {
			crcs[k] = v
		}
		oracles = append(oracles, ttOracle{seq: seq, crcs: crcs})
	}
	var ingested []string
	for i := 0; i < p.Files; i += p.BatchSize {
		var batch []lake.BatchFile
		for j := i; j < i+p.BatchSize && j < p.Files; j++ {
			rel := fmt.Sprintf("d%03d/u%06d.evt", j/50, j)
			data := make([]byte, p.FileBytes)
			rng.Read(data)
			batch = append(batch, lake.BatchFile{Rel: rel, Day: int64(j / 50), Data: data})
		}
		seq, err := lk.StoreBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("ingest batch at %d: %w", i, err)
		}
		for _, f := range batch {
			state[f.Rel] = crc32.ChecksumIEEE(f.Data)
			ingested = append(ingested, f.Rel)
		}
		snap(seq)

		if p.DeleteEvy > 0 && (i/p.BatchSize)%p.DeleteEvy == p.DeleteEvy-1 && len(ingested) > p.BatchSize {
			victim := ingested[rng.Intn(len(ingested)-p.BatchSize)]
			if _, ok := state[victim]; !ok {
				continue
			}
			seq, err := lk.Delete([]string{victim})
			if err != nil {
				return nil, fmt.Errorf("churn delete %s: %w", victim, err)
			}
			delete(state, victim)
			res.Deletes++
			snap(seq)
		}
	}
	res.Commits = lk.Head()
	res.JournalBytes = lk.Status().JournalBytes
	logf("ingested %d files over %d commits (%d churn deletes)", p.Files, res.Commits, res.Deletes)

	// Depth sweep, pre-compaction: evenly spaced commits from the earliest
	// snapshot to head. The deepest depth is pinned FIRST and held through
	// compaction + GC, so the later post-compaction sweep demonstrates the
	// pin keeping all measured history openable.
	var seqs []uint64
	for i := 0; i < p.Depths; i++ {
		idx := i * (len(oracles) - 1) / (p.Depths - 1)
		seqs = append(seqs, oracles[idx].seq)
	}
	oracleAt := func(seq uint64) *ttOracle {
		// Largest data-commit snapshot at or below seq.
		best := &oracles[0]
		for i := range oracles {
			if oracles[i].seq <= seq {
				best = &oracles[i]
			}
		}
		return best
	}
	anchor, err := lk.OpenAt(seqs[0])
	if err != nil {
		return nil, fmt.Errorf("anchor pin: %w", err)
	}
	defer anchor.Close()
	for _, seq := range seqs {
		d, err := measureDepth(lk, seq, oracleAt(seq), p, rng, res)
		if err != nil {
			return nil, err
		}
		res.Depths = append(res.Depths, d)
		logf("depth %d behind: open %.2fms, read p50 %.1fus, oracle ok=%v", d.Behind, d.OpenMs, d.ReadP50Us, d.OracleOK)
	}

	// Head-read baseline, then the compaction round. Compaction tombstones
	// its victims under fresh commits, so while the anchor pin is held
	// nothing physical can be reclaimed yet — that is the GC-safety
	// contract, measured rather than asserted.
	headReads := func() float64 {
		rels := lk.List()
		var durs []time.Duration
		for i := 0; i < p.Reads && len(rels) > 0; i++ {
			rel := rels[rng.Intn(len(rels))]
			r0 := time.Now()
			if _, err := lk.Read(rel); err == nil {
				durs = append(durs, time.Since(r0))
			}
		}
		return pctUs(durs, 0.50)
	}
	c := &res.Compaction
	st := lk.Status()
	c.ContainersBefore, c.PhysBefore, c.LiveBytes = st.ContainersLive, st.PhysBytes, st.LiveBytes
	c.ReadP50UsBefore = headReads()

	t0 := time.Now()
	opts := lake.CompactOptions{SmallBytes: 8 << 20, DeadFraction: 0.05, MinMerge: 2, MaxMerge: 64}
	for {
		cr, err := lk.Compact(opts)
		if err != nil {
			return nil, fmt.Errorf("compact: %w", err)
		}
		if cr.Merged == 0 {
			break
		}
		c.Merged += cr.Merged
	}
	c.CompactMs = float64(time.Since(t0).Nanoseconds()) / 1e6

	// Post-compaction sweep, anchor still pinned: every measured commit
	// must still open and still match its oracle — time travel survives
	// the physical rewrite.
	if lk.Horizon() > seqs[0] {
		return nil, fmt.Errorf("GC horizon %d passed the anchor pin at %d", lk.Horizon(), seqs[0])
	}
	for _, seq := range seqs {
		d, err := measureDepth(lk, seq, oracleAt(seq), p, rng, res)
		if err != nil {
			return nil, err
		}
		res.PostDepths = append(res.PostDepths, d)
	}

	// Drop the anchor; only now may GC retire the pre-compaction history
	// (churn tombstones and compaction victims alike).
	if err := anchor.Close(); err != nil {
		return nil, fmt.Errorf("anchor close: %w", err)
	}
	t0 = time.Now()
	gr, err := lk.GC(lk.Head())
	if err != nil {
		return nil, fmt.Errorf("gc: %w", err)
	}
	c.GCMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	c.Reclaimed = gr.Reclaimed
	st = lk.Status()
	c.ContainersAfter, c.PhysAfter = st.ContainersLive, st.PhysBytes
	c.ReadP50UsAfter = headReads()
	logf("compaction merged %d containers (%d -> %d, phys %d -> %d bytes), gc reclaimed %d after unpin",
		c.Merged, c.ContainersBefore, c.ContainersAfter, c.PhysBefore, c.PhysAfter, c.Reclaimed)

	if res.OracleFails > 0 {
		return res, fmt.Errorf("%d/%d oracle checks failed — as-of views diverged from the replay oracle", res.OracleFails, res.OracleChecks)
	}
	res.TotalElapsed = time.Since(start).Seconds()
	return res, nil
}

// FormatTimeTravel renders the experiment in the repo's table style.
func FormatTimeTravel(r *TimeTravelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Time travel — as-of reads over the commit journal (%d files, %d commits, %d churn deletes)\n",
		r.Files, r.Commits, r.Deletes)
	fmt.Fprintf(&b, "  %-8s %-10s %-8s %-10s %-12s %-12s %s\n",
		"commit", "behind", "members", "open ms", "read p50 us", "read p95 us", "oracle")
	row := func(d TimeTravelDepth) {
		ok := "ok"
		if !d.OracleOK {
			ok = "FAIL"
		}
		fmt.Fprintf(&b, "  %-8d %-10d %-8d %-10.2f %-12.1f %-12.1f %s\n",
			d.Commit, d.Behind, d.Members, d.OpenMs, d.ReadP50Us, d.ReadP95Us, ok)
	}
	for _, d := range r.Depths {
		row(d)
	}
	c := r.Compaction
	fmt.Fprintf(&b, "compaction: %d containers merged, %d -> %d live containers, phys %.1f -> %.1f MiB (live %.1f MiB), gc reclaimed %.1f MiB in %.1f ms\n",
		c.Merged, c.ContainersBefore, c.ContainersAfter,
		float64(c.PhysBefore)/(1<<20), float64(c.PhysAfter)/(1<<20),
		float64(c.LiveBytes)/(1<<20), float64(c.Reclaimed)/(1<<20), c.CompactMs+c.GCMs)
	fmt.Fprintf(&b, "head read p50: %.1f -> %.1f us across the rewrite\n", c.ReadP50UsBefore, c.ReadP50UsAfter)
	fmt.Fprintf(&b, "  post-compaction depth sweep (anchor pin held the horizon at commit %d):\n", r.PostDepths[0].Commit)
	for _, d := range r.PostDepths {
		row(d)
	}
	fmt.Fprintf(&b, "oracle: %d checks, %d failures; journal %.1f MiB; %.1fs total\n",
		r.OracleChecks, r.OracleFails, float64(r.JournalBytes)/(1<<20), r.TotalElapsed)
	return b.String()
}
