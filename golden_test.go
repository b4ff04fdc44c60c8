package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eddpc"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// The golden file pins every pipeline's output and cost counts. Each line
// is one (pipeline, seed): a 12-hex sha256 prefix over the pipeline's
// output arrays, then one entry per job it ran with the counts below that
// are not zero. Wire bytes, timings and attempt counters are left out, so
// every engine must print the same line — the file is the local-vs-rpcmr
// conformance check as well. On a mismatch the test writes what it
// computed to golden.got beside golden.txt; accepting a change is
//
//	mv testdata/golden.got testdata/golden.txt
const (
	goldenPath = "testdata/golden.txt"
	goldenGot  = "testdata/golden.got"
)

// goldenCounters are the per-job counts a golden line holds, with the short
// name it prints them under.
var goldenCounters = []struct{ name, short string }{
	{mapreduce.CtrDistanceComputations, "dist"},
	{mapreduce.CtrShuffleRecords, "srec"},
	{mapreduce.CtrShuffleBytes, "sbytes"},
	{core.CtrPairsPruned, "pruned"},
	{core.CtrPairsSkipped, "skipped"},
	{core.CtrDeltaCertified, "certified"},
	{knnjoin.CtrFallbacks, "fallbacks"},
}

// goldenHeader opens the file with the key to its columns.
const goldenHeader = `# One line per (pipeline, seed): a sha256 prefix of its outputs, then per job
# (a run of n equal jobs is one "name×n" entry) the non-zero counts among
# dist = dp.distance.computations, srec / sbytes = shuffle.records / .bytes,
# mrec / mbytes = map.output.records / .bytes (instead of srec / sbytes on a
# job with a combiner, whose shuffle follows the split count), pruned /
# skipped = dp.lsh.pairs.*, certified = dp.delta.certified, fallbacks =
# knn.exact.fallbacks. The serve
# and ingest lines digest the exported model's answers to fixed queries, then
# rows / certified / exact = rows scanned, one-bucket answers and exact
# fallbacks, and delta_scanned = the delta rows an ingest store's reads evaluate.
# The ingest-stream lines digest a store's acks, answers and final artifact
# across two compactions and a WAL replay, then compact_points / replayed =
# compact.points and ingest.replayed summed over both opens of the store.
# The route lines digest a router's replies over the fleet partition (the
# queries, the ingest acks, the queries again with the ingested points),
# then shards_per_query / certified / broadcasts = fleet.shards.per.query,
# fleet.certified and fleet.fallback.broadcasts. The tie-* lines run those
# pipelines on an integer lattice whose every point is stored twice.
# Written by TestGolden (golden_test.go); accept a change with
#   mv testdata/golden.got testdata/golden.txt
`

var goldenSeeds = []int64{1, 2, 4}

// Shapes of the golden runs: blobs of goldenN points in goldenDim
// dimensions around goldenK centres, spread wide enough that clusters touch
// and the halo pass flags points; the join splits them into goldenR
// queries and the rest as its base.
const (
	goldenN   = 3000
	goldenDim = 4
	goldenK   = 5
	goldenR   = 500
	knnK      = 8

	// The online lines: goldenQ queries at or near stored rows, goldenFar
	// far off every stored row, and goldenIngest points ingested.
	goldenQ      = 200
	goldenFar    = 8
	goldenIngest = 40
)

// recorder is an engine that remembers the golden counts of every job it
// runs, in order.
type recorder struct {
	mapreduce.Engine
	mu   sync.Mutex
	jobs []string
}

func (r *recorder) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	res, err := r.Engine.Run(ctx, job, input)
	if err != nil {
		return nil, err
	}
	entry := job.Name
	for _, c := range goldenCounters {
		if job.Combine != nil && c.name == mapreduce.CtrShuffleRecords {
			c.name, c.short = mapreduce.CtrMapOutputRecords, "mrec"
		}
		if job.Combine != nil && c.name == mapreduce.CtrShuffleBytes {
			c.name, c.short = mapreduce.CtrMapOutputBytes, "mbytes"
		}
		if v := res.Counters.Get(c.name); v != 0 {
			entry += fmt.Sprintf(" %s=%d", c.short, v)
		}
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, entry)
	r.mu.Unlock()
	return res, nil
}

// take returns the entries recorded since the last take, consecutive
// repeats folded into one "×n" entry (K-means runs one job per iteration).
func (r *recorder) take() string {
	r.mu.Lock()
	jobs := r.jobs
	r.jobs = nil
	r.mu.Unlock()
	var b strings.Builder
	for i := 0; i < len(jobs); {
		j := i + 1
		for j < len(jobs) && jobs[j] == jobs[i] {
			j++
		}
		b.WriteString(" | ")
		if name, counts, _ := strings.Cut(jobs[i], " "); j-i > 1 {
			fmt.Fprintf(&b, "%s×%d %s", name, j-i, counts)
		} else {
			b.WriteString(jobs[i])
		}
		i = j
	}
	return strings.TrimRight(b.String(), " ")
}

// digest is a sha256 over little-endian arrays.
type digest struct{ buf []byte }

func (d *digest) f64s(xs []float64) *digest {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
	}
	return d
}

func (d *digest) i32s(xs []int32) *digest {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(x))
	}
	return d
}

func (d *digest) ints(xs []int) *digest {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(x))
	}
	return d
}

func (d *digest) bools(xs []bool) *digest {
	for _, x := range xs {
		b := byte(0)
		if x {
			b = 1
		}
		d.buf = append(d.buf, b)
	}
	return d
}

func (d *digest) bytes(b []byte) *digest {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(len(b)))
	d.buf = append(d.buf, b...)
	return d
}

func (d *digest) String() string {
	sum := sha256.Sum256(d.buf)
	return hex.EncodeToString(sum[:6])
}

// answers digests served answers: cluster, nearest ID, d², halo,
// certified, exact, and whether the query failed.
func (d *digest) answers(out []serve.Assignment, errs []error) *digest {
	for i, a := range out {
		d.i32s([]int32{a.Cluster, a.Nearest}).f64s([]float64{a.Dist2}).
			bools([]bool{a.Halo, a.Certified, a.Exact, errs[i] != nil})
	}
	return d
}

// acks digests ingest acks: the assigned ID, then the answer.
func (d *digest) acks(acks []serve.IngestResult) *digest {
	for _, a := range acks {
		d.i32s([]int32{a.ID}).answers([]serve.Assignment{a.Assignment}, []error{nil})
	}
	return d
}

// storeAnswers digests st's answers to qs, pruned and then exact-only.
func (d *digest) storeAnswers(st *ingest.Store, qs []points.Vector) *digest {
	for _, exact := range []bool{false, true} {
		out, errs, _ := st.AssignBatch(qs, serve.BatchOpts{ExactOnly: exact})
		d.answers(out, errs)
	}
	return d
}

func ddpDigest(res *core.Result) string {
	return new(digest).f64s(res.Rho).f64s(res.Delta).i32s(res.Upslope).String()
}

func knnDigest(res *knnjoin.Result) string {
	d := new(digest)
	for _, ns := range res.Neighbors {
		d.ints([]int{len(ns)})
		for _, n := range ns {
			d.i32s([]int32{n.ID}).f64s([]float64{n.D2})
		}
	}
	return d.String()
}

// goldenLines runs every pipeline at seed on eng and returns one line per
// pipeline, in a fixed order; dir holds the fleet manifests it writes.
func goldenLines(ctx context.Context, eng mapreduce.Engine, seed int64, dir string) ([]string, error) {
	rec := &recorder{Engine: eng}
	ds := dataset.Blobs("golden", goldenN, goldenDim, goldenK, 100, 10, seed)
	cfg := core.Config{Engine: rec, Seed: seed}
	var lines []string
	add := func(pipeline, sum string) {
		lines = append(lines, fmt.Sprintf("%s seed=%d %s%s", pipeline, seed, sum, rec.take()))
	}

	lshCfg := core.LSHConfig{Config: cfg}
	lsh, err := core.RunLSHDDP(ctx, ds, lshCfg)
	if err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	add("lsh", ddpDigest(lsh))
	peaks, labels, err := lsh.Cluster(ds, core.SelectTopK(goldenK))
	if err != nil {
		return nil, err
	}
	halo, err := core.RunLSHHalo(ctx, ds, lsh, labels, lshCfg)
	if err != nil {
		return nil, fmt.Errorf("halo: %w", err)
	}
	add("halo", new(digest).bools(halo.Halo).f64s(halo.Border).String())

	mdl, err := core.ExportModel(ds, lsh, peaks, labels, halo.Border, seed)
	if err != nil {
		return nil, err
	}
	artifact, err := mdl.Encode()
	if err != nil {
		return nil, err
	}
	add("model", fmt.Sprintf("%s bytes=%d", new(digest).bytes(artifact), len(artifact)))
	qs, batch := goldenQueries(mdl, seed), goldenBatch(mdl, seed)
	line, err := serveLine(mdl, qs)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	add("serve", line)
	if line, err = ingestLine(mdl, qs, batch, filepath.Join(dir, "ingest")); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	add("ingest", line)
	if line, err = ingestStreamLine(mdl, qs, batch, filepath.Join(dir, "ingest-stream")); err != nil {
		return nil, fmt.Errorf("ingest-stream: %w", err)
	}
	add("ingest-stream", line)
	for _, shards := range []int{2, 4} {
		subs, mf, err := fleet.Partition(mdl, shards, 0)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		path := filepath.Join(dir, "fleet.json")
		if err := mf.Save(path); err != nil {
			return nil, err
		}
		manifest, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		d := new(digest).bytes(manifest)
		for _, sub := range subs {
			b, err := sub.Encode()
			if err != nil {
				return nil, err
			}
			d.bytes(b)
		}
		add(fmt.Sprintf("fleet%d", shards), fmt.Sprintf("%s overrides=%d", d, len(mf.Overrides)))
		line, err := routeLine(mdl, subs, mf, qs, batch, filepath.Join(dir, fmt.Sprintf("route%d", shards)))
		if err != nil {
			return nil, fmt.Errorf("route%d: %w", shards, err)
		}
		add(fmt.Sprintf("route%d", shards), line)
	}

	basic, err := core.RunBasicDDP(ctx, ds, core.BasicConfig{Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("basic: %w", err)
	}
	add("basic", ddpDigest(basic))
	ed, err := eddpc.Run(ctx, ds, eddpc.Config{Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("eddpc: %w", err)
	}
	add("eddpc", ddpDigest(ed))

	km, err := kmeansmr.Run(ctx, ds, kmeansmr.Config{Engine: rec, K: goldenK, MaxIter: 5, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("kmeans: %w", err)
	}
	add("kmeans", new(digest).ints(km.Labels).String())

	R, S, err := dataset.Split(ds, goldenR, seed)
	if err != nil {
		return nil, err
	}
	if err := joinLines(ctx, cfg, R, S, add); err != nil {
		return nil, err
	}
	return lines, nil
}

// joinLines runs the kNN-join of R against S, with and without the
// bucketed pass, and adds one line each.
func joinLines(ctx context.Context, cfg core.Config, R, S *points.Dataset, add func(pipeline, sum string)) error {
	for _, exact := range []bool{false, true} {
		run, name := knnjoin.Run, "knn"
		if exact {
			run, name = knnjoin.RunExact, "knn-exact"
		}
		res, err := run(ctx, cfg.DagSession(), R, S, knnK, knnjoin.Config{Seed: cfg.Seed})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// The total counts the driver's walks over its sample of S too.
		add(name, fmt.Sprintf("%s dist=%d", knnDigest(res), res.Stats.DistanceComputations))
	}
	return nil
}

// The tie lines run LSH-DDP, Basic-DDP, EDDPC, the kNN-join and the serving
// engine on goldenTies, a tieW × tieH integer lattice stored twice: the
// first copy with IDs falling as either coordinate grows, the second with
// them rising, so that of two tied rows the lower ID is neither always the
// one met first nor always the one with the lower coordinate. Every squared
// distance is an integer and every point has a twin at 0, so ρ, δ, the
// upslope, each kNN list and each served answer are decided by the
// (d², lowest ID) rule.
const (
	tieW, tieH = 16, 12
	tieR       = 64 // the join's queries
	tieK       = 4  // the peaks the served model keeps
	tieSeed    = 1
)

func goldenTies() *points.Dataset {
	n := tieW * tieH
	vs := make([]points.Vector, 2*n)
	for i := range n {
		vs[i] = points.Vector{float64(tieW - 1 - i%tieW), float64(tieH - 1 - i/tieW)}
		vs[2*n-1-i] = slices.Clone(vs[i])
	}
	return points.FromVectors("ties", vs)
}

// tieQueries are the served queries of the tie lines: every lattice point,
// shifted in turn by nothing (a twin pair at 0), by half a step along either
// axis (four rows tie, two of them at an axis gap equal to the best
// distance, which a sweep on that axis must still walk to) and by half a
// step on both (eight rows tie).
func tieQueries() []points.Vector {
	shifts := [][2]float64{{0, 0}, {0.5, 0}, {0, 0.5}, {0.5, 0.5}}
	qs := make([]points.Vector, tieW*tieH)
	for i := range qs {
		s := shifts[i%len(shifts)]
		qs[i] = points.Vector{float64(i%tieW) + s[0], float64(i/tieW) + s[1]}
	}
	return qs
}

// tieLines runs the tie pipelines on eng, one line each.
func tieLines(ctx context.Context, eng mapreduce.Engine) ([]string, error) {
	rec := &recorder{Engine: eng}
	ds := goldenTies()
	cfg := core.Config{Engine: rec, Seed: tieSeed}
	var lines []string
	add := func(pipeline, sum string) {
		lines = append(lines, fmt.Sprintf("tie-%s seed=%d %s%s", pipeline, tieSeed, sum, rec.take()))
	}

	lsh, err := core.RunLSHDDP(ctx, ds, core.LSHConfig{Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("tie lsh: %w", err)
	}
	add("lsh", ddpDigest(lsh))
	peaks, labels, err := lsh.Cluster(ds, core.SelectTopK(tieK))
	if err != nil {
		return nil, err
	}
	mdl, err := core.ExportModel(ds, lsh, peaks, labels, nil, tieSeed)
	if err != nil {
		return nil, err
	}
	line, err := serveLine(mdl, tieQueries())
	if err != nil {
		return nil, fmt.Errorf("tie serve: %w", err)
	}
	add("serve", line)

	basic, err := core.RunBasicDDP(ctx, ds, core.BasicConfig{Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("tie basic: %w", err)
	}
	add("basic", ddpDigest(basic))
	ed, err := eddpc.Run(ctx, ds, eddpc.Config{Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("tie eddpc: %w", err)
	}
	add("eddpc", ddpDigest(ed))

	R, S, err := dataset.Split(ds, tieR, tieSeed)
	if err != nil {
		return nil, err
	}
	if err := joinLines(ctx, cfg, R, S, add); err != nil {
		return nil, fmt.Errorf("tie %w", err)
	}
	return lines, nil
}

// goldenQueries is the fixed query set of the online lines: every fourth
// query sits on a stored row, the rest near one, and the last goldenFar lie
// far off every stored row, where no bucket holds a row and the exact
// fallback answers.
func goldenQueries(mdl *model.Model, seed int64) []points.Vector {
	rng := points.NewRand(seed)
	qs := make([]points.Vector, 0, goldenQ+goldenFar)
	for i := range goldenQ {
		q := slices.Clone(mdl.Row(rng.Intn(mdl.N())))
		if i%4 != 0 {
			for j := range q {
				q[j] += rng.NormFloat64() * 3
			}
		}
		qs = append(qs, q)
	}
	for range goldenFar {
		q := make(points.Vector, mdl.Dim)
		for j := range q {
			q[j] = (rng.Float64() - 0.5) * 1e5
		}
		qs = append(qs, q)
	}
	return qs
}

// serveLine answers qs on the exported model, pruned and exact-only, at f64
// and at q8. The digest covers both modes; rows / certified / exact are the
// pruned pass's scanned rows, one-bucket answers and exact fallbacks. Both
// precisions must print the same line.
func serveLine(mdl *model.Model, qs []points.Vector) (string, error) {
	var line string
	for _, prec := range []serve.Precision{serve.PrecF64, serve.PrecQ8} {
		eng, err := serve.NewEngine(mdl, prec)
		if err != nil {
			return "", err
		}
		if eng.Precision() != prec {
			return "", fmt.Errorf("engine serves at precision %d, want %d", eng.Precision(), prec)
		}
		d := new(digest)
		out, errs, st := eng.AssignBatch(qs, false)
		d.answers(out, errs)
		out, errs, _ = eng.AssignBatch(qs, true)
		d.answers(out, errs)
		l := fmt.Sprintf("%s rows=%d certified=%d exact=%d", d, st.Scanned, st.Certified, st.ExactQueries)
		if line != "" && l != line {
			return "", fmt.Errorf("q8 prints %q, f64 %q", l, line)
		}
		line = l
	}
	return line, nil
}

// goldenBatch is the fixed ingest batch of the online lines: goldenIngest
// points near stored rows.
func goldenBatch(mdl *model.Model, seed int64) [][]float64 {
	rng := points.NewRand(-seed)
	batch := make([][]float64, goldenIngest)
	for i := range batch {
		p := slices.Clone(mdl.Row(rng.Intn(mdl.N())))
		for j := range p {
			p[j] += rng.NormFloat64()
		}
		batch[i] = p
	}
	return batch
}

// ingestLine opens an ingest store over the exported model in dir, ingests
// batch, and answers qs and the ingested points, pruned and exact-only. The
// digest covers the acks and the answers; delta_scanned counts the delta
// rows the reads evaluated (the forest walks' leaf rows).
func ingestLine(mdl *model.Model, qs []points.Vector, batch [][]float64, dir string) (string, error) {
	st, err := ingest.Open(ingest.Config{Dir: dir, Precision: "f64"}, func() (*model.Model, error) { return mdl, nil })
	if err != nil {
		return "", err
	}
	defer st.Close()
	acks, err := st.IngestPoints(batch)
	if err != nil {
		return "", err
	}
	d := new(digest).acks(acks)
	d.storeAnswers(st, slices.Concat(qs, batchVectors(batch)))
	return fmt.Sprintf("%s delta_scanned=%d", d, st.Counters()[ingest.CtrDeltaScanned]), nil
}

// ingestStreamLine drives a store's whole write path over the exported
// model in a fresh dir: ingest batch[:goldenIngest/2], compact, ingest the
// rest, close and reopen (replaying the WAL), compact again. The digest
// covers the acks, qs and batch answered pruned and exact-only after each
// of those four steps, and the final artifact's bytes. The case runs at
// GOMAXPROCS 1 and 3, which must print the same line.
func ingestStreamLine(mdl *model.Model, qs []points.Vector, batch [][]float64, dir string) (string, error) {
	var line string
	for _, procs := range []int{1, 3} {
		l, err := func() (string, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return ingestStream(mdl, slices.Concat(qs, batchVectors(batch)), batch, filepath.Join(dir, fmt.Sprint(procs)))
		}()
		if err != nil {
			return "", err
		}
		if line != "" && l != line {
			return "", fmt.Errorf("GOMAXPROCS 3 prints %q, 1 %q", l, line)
		}
		line = l
	}
	return line, nil
}

// ingestStream is one run of ingestStreamLine's case; qs holds the queries
// and the batch points.
func ingestStream(mdl *model.Model, qs []points.Vector, batch [][]float64, dir string) (string, error) {
	open := func() (*ingest.Store, error) {
		return ingest.Open(ingest.Config{Dir: dir, Precision: "f64"}, func() (*model.Model, error) { return mdl, nil })
	}
	d := new(digest)
	var compacted, replayed int64
	count := func(st *ingest.Store) {
		c := st.Counters()
		compacted += c[ingest.CtrCompactPoints]
		replayed += c[ingest.CtrReplayed]
	}
	st, err := open()
	if err != nil {
		return "", err
	}
	defer func() { st.Close() }()
	half := len(batch) / 2
	acks, err := st.IngestPoints(batch[:half])
	if err != nil {
		return "", err
	}
	d.acks(acks)
	if _, err := st.Compact(); err != nil {
		return "", err
	}
	d.storeAnswers(st, qs)
	if acks, err = st.IngestPoints(batch[half:]); err != nil {
		return "", err
	}
	d.acks(acks)
	d.storeAnswers(st, qs)
	count(st)
	if err := st.Close(); err != nil {
		return "", err
	}
	if st, err = open(); err != nil {
		return "", err
	}
	d.storeAnswers(st, qs)
	info, err := st.Compact()
	if err != nil {
		return "", err
	}
	d.storeAnswers(st, qs)
	count(st)
	artifact, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("model-%06d.ddpm", info.Version)))
	if err != nil {
		return "", err
	}
	d.bytes(artifact)
	return fmt.Sprintf("%s compact_points=%d replayed=%d", d, compacted, replayed), nil
}

// batchVectors views an ingest batch as queries.
func batchVectors(batch [][]float64) []points.Vector {
	vs := make([]points.Vector, len(batch))
	for i, p := range batch {
		vs[i] = p
	}
	return vs
}

// routeLine serves the fleet partition subs of mdl behind a router
// (serveFleet). It posts qs to the router's /assign, whose reply must equal
// a single full-model server's byte for byte, then batch to /ingest, then
// qs and batch to /assign again. The digest covers the three reply bodies;
// shards_per_query / certified / broadcasts are the router's
// fleet.shards.per.query, fleet.certified and fleet.fallback.broadcasts.
func routeLine(mdl *model.Model, subs []*model.Model, mf *fleet.Manifest, qs []points.Vector, batch [][]float64, dir string) (string, error) {
	ctx := context.Background()
	router, stop, err := serveFleet(mdl, subs, mf, dir)
	if err != nil {
		return "", err
	}
	defer stop()
	single := serve.New(serve.Config{})
	if err := single.SetModel(mdl); err != nil {
		return "", err
	}
	if err := single.Start("127.0.0.1:0"); err != nil {
		return "", err
	}
	defer single.Shutdown(ctx) //nolint:errcheck

	d := new(digest)
	routed, err := postPoints(router.Addr(), "/assign", qs)
	if err != nil {
		return "", err
	}
	want, err := postPoints(single.Addr(), "/assign", qs)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(routed, want) {
		return "", fmt.Errorf("router /assign differs from a single server's:\n  %s\n  %s", routed, want)
	}
	d.bytes(routed)
	acks, err := postPoints(router.Addr(), "/ingest", batch)
	if err != nil {
		return "", err
	}
	d.bytes(acks)
	for _, p := range batch {
		qs = append(qs, p)
	}
	if routed, err = postPoints(router.Addr(), "/assign", qs); err != nil {
		return "", err
	}
	d.bytes(routed)
	c := router.Counters()
	return fmt.Sprintf("%s shards_per_query=%d certified=%d broadcasts=%d", d,
		c.Get(fleet.CtrShardsPerQuery), c.Get(fleet.CtrCertified), c.Get(fleet.CtrFallbackBroadcasts)), nil
}

// serveFleet starts the fleet partition subs of mdl behind a router: one
// ingest-enabled server per shard, with the ID layout OPERATIONS.md
// prescribes (base N+shard, stride = shard count) and its WAL under dir.
// stop shuts the router, the servers and the stores down.
func serveFleet(mdl *model.Model, subs []*model.Model, mf *fleet.Manifest, dir string) (router *fleet.Router, stop func(), err error) {
	ctx := context.Background()
	var closers []func()
	stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()
	addrs := make([][]string, len(subs))
	for s, sub := range subs {
		id := s
		srv := serve.New(serve.Config{ShardID: &id})
		st, err := ingest.Open(ingest.Config{
			Dir:       filepath.Join(dir, fmt.Sprint(s)),
			Precision: "f64",
			IDBase:    int64(mdl.N() + s),
			IDStride:  int64(len(subs)),
			OnSwap:    srv.UseEngine,
		}, func() (*model.Model, error) { return sub, nil })
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() { st.Close() })
		srv.SetIngest(st)
		srv.UseEngine(st.Engine())
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() { srv.Shutdown(ctx) }) //nolint:errcheck
		addrs[s] = []string{srv.Addr()}
	}
	if router, err = fleet.NewRouter(fleet.RouterConfig{Manifest: mf, Shards: addrs}); err != nil {
		return nil, nil, err
	}
	if err = router.Start("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	closers = append(closers, func() { router.Shutdown(ctx) }) //nolint:errcheck
	return router, stop, nil
}

// postPoints posts pts as a points request body to path at addr and
// returns the reply body, failing on any status but 200.
func postPoints(addr, path string, pts any) ([]byte, error) {
	body, err := json.Marshal(map[string]any{"points": pts})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: HTTP %d %s", addr, path, resp.StatusCode, out)
	}
	return out, err
}

// TestRoutedIngestDivergesFromSingleStore pins ROADMAP item 27: after the
// golden batch goes through a router's /ingest, the router's answers to the
// golden queries are not those of one ingest store holding the same batch
// over the full model. It counts the queries whose cluster, distance or
// exact flag differ (IDs differ by the fleet's ID layout alone), at 2 and 4
// shards; every far query is among them. A fix of the routed write path
// takes the counts to 0.
func TestRoutedIngestDivergesFromSingleStore(t *testing.T) {
	want := map[int64][2]int{1: {10, 10}, 2: {8, 9}, 4: {8, 10}} // at 2, 4 shards
	ctx := context.Background()
	for _, seed := range goldenSeeds {
		ds := dataset.Blobs("golden", goldenN, goldenDim, goldenK, 100, 10, seed)
		lshCfg := core.LSHConfig{Config: core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 1}, Seed: seed}}
		res, err := core.RunLSHDDP(ctx, ds, lshCfg)
		if err != nil {
			t.Fatal(err)
		}
		peaks, labels, err := res.Cluster(ds, core.SelectTopK(goldenK))
		if err != nil {
			t.Fatal(err)
		}
		halo, err := core.RunLSHHalo(ctx, ds, res, labels, lshCfg)
		if err != nil {
			t.Fatal(err)
		}
		mdl, err := core.ExportModel(ds, res, peaks, labels, halo.Border, seed)
		if err != nil {
			t.Fatal(err)
		}
		qs, batch := goldenQueries(mdl, seed), goldenBatch(mdl, seed)

		st, err := ingest.Open(ingest.Config{Dir: t.TempDir(), Precision: "f64"}, func() (*model.Model, error) { return mdl, nil })
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.IngestPoints(batch); err != nil {
			t.Fatal(err)
		}
		single, errs, _ := st.AssignBatch(qs, serve.BatchOpts{})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, i, err)
			}
		}

		for k, shards := range []int{2, 4} {
			subs, mf, err := fleet.Partition(mdl, shards, 0)
			if err != nil {
				t.Fatal(err)
			}
			router, stop, err := serveFleet(mdl, subs, mf, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			_, err = postPoints(router.Addr(), "/ingest", batch)
			var body []byte
			if err == nil {
				body, err = postPoints(router.Addr(), "/assign", qs)
			}
			stop()
			if err != nil {
				t.Fatal(err)
			}
			var routed serve.AssignResponse
			if err := json.Unmarshal(body, &routed); err != nil || len(routed.Results) != len(qs) {
				t.Fatalf("seed %d, %d shards: %d answers for %d queries (%v)", seed, shards, len(routed.Results), len(qs), err)
			}
			var differ []int
			for i, a := range routed.Results {
				if b := single[i]; a.Cluster != b.Cluster || a.Dist != b.Dist || a.Exact != b.Exact {
					differ = append(differ, i)
				}
			}
			t.Logf("seed %d, %d shards: %d of %d answers differ: %v", seed, shards, len(differ), len(qs), differ)
			if len(differ) != want[seed][k] {
				t.Errorf("seed %d, %d shards: %d answers differ from the single store's, want %d", seed, shards, len(differ), want[seed][k])
			}
			for i := goldenQ; i < len(qs); i++ {
				if !slices.Contains(differ, i) {
					t.Errorf("seed %d, %d shards: far query %d answers as the single store does", seed, shards, i)
				}
			}
		}
	}
}

// goldenCluster boots a master and three workers on loopback.
func goldenCluster(t *testing.T) mapreduce.Engine {
	for _, f := range []map[string]func(mapreduce.Conf) *mapreduce.Job{
		core.JobFactories(), core.HaloJobFactories(), eddpc.JobFactories(),
		kmeansmr.JobFactories(), knnjoin.JobFactories(),
	} {
		rpcmr.RegisterJobs(f)
	}
	master, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	for range 3 {
		w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	if err := master.WaitWorkers(3, time.Minute); err != nil {
		t.Fatal(err)
	}
	return master
}

// TestGolden runs every pipeline at every golden seed, and the tie
// pipelines, on each engine,
// requires the engines to agree line for line, and holds the lines to
// testdata/golden.txt. The rpcmr cluster is skipped under -short.
func TestGolden(t *testing.T) {
	engines := []struct {
		name string
		eng  mapreduce.Engine
	}{
		{"local/1", &mapreduce.LocalEngine{Parallelism: 1}},
		{"local/3", &mapreduce.LocalEngine{Parallelism: 3}},
	}
	if !testing.Short() {
		engines = append(engines, struct {
			name string
			eng  mapreduce.Engine
		}{"rpcmr/3", goldenCluster(t)})
	}
	ctx := context.Background()
	var runs []func(mapreduce.Engine) ([]string, error)
	for _, seed := range goldenSeeds {
		runs = append(runs, func(eng mapreduce.Engine) ([]string, error) {
			return goldenLines(ctx, eng, seed, t.TempDir())
		})
	}
	runs = append(runs, func(eng mapreduce.Engine) ([]string, error) { return tieLines(ctx, eng) })
	var got []string
	for r, run := range runs {
		var first []string
		for i, e := range engines {
			lines, err := run(e.eng)
			if err != nil {
				t.Fatalf("%s run %d: %v", e.name, r, err)
			}
			if i == 0 {
				first = lines
				continue
			}
			for j := range lines {
				if lines[j] != first[j] {
					t.Errorf("%s differs from %s:\n  %s\n  %s", e.name, engines[0].name, lines[j], first[j])
				}
			}
		}
		got = append(got, first...)
	}
	if t.Failed() {
		t.FailNow()
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	text := goldenHeader + strings.Join(got, "\n") + "\n"
	if string(want) == text {
		os.Remove(goldenGot)
		return
	}
	if err := os.WriteFile(goldenGot, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("pipeline outputs differ from %s (wrote %s; mv it over %s to accept):\n%s",
		goldenPath, goldenGot, goldenPath, lineDiff(string(want), text))
}

// lineDiff lists the lines only in the text want ("-") and only in the text
// got ("+").
func lineDiff(want, got string) string {
	var b strings.Builder
	only := func(sign string, lines, other []string) {
		for _, l := range lines {
			if !slices.Contains(other, l) {
				fmt.Fprintf(&b, "%s %s\n", sign, l)
			}
		}
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	only("-", w, g)
	only("+", g, w)
	return b.String()
}
