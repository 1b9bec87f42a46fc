// Command traced is the traced run of the repository benchmark. It times
// calls into each layer's public functions from outside: the pipeline
// stages, the store's batch write, snapshot save and load, the query
// engine, the result cache and the reply encoder. It then serves the
// workload's queries through a kbrouter whose shards sit behind timing
// proxies of its own, so that every shard RPC is a span whose parent is
// the one client request in flight. It prints the per-layer metrics and
// writes the spans to .bench_build/traces/. perfbench/run.py builds and
// runs it:
//
//	python3 perfbench/run.py --workload join --seed 1 --seconds 20 --trace 1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/qcache"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
	"kbharvest/internal/synth"
	"kbharvest/perfbench/bench"
)

const (
	warmup = time.Second
	// sampleSize is how many of the workload's queries the in-process
	// engine, cache and encoder timings run.
	sampleSize = 2000
)

// stages are the pipeline stages kbbuild runs, in order.
var stages = []string{"generate", "taxonomy", "extract", "reason", "assert", "labels", "nedmodels"}

func main() {
	workload := flag.String("workload", "", "build, lookup or join")
	seed := flag.Int64("seed", 1, "seed for the build and the query generator")
	seconds := flag.Int("seconds", 20, "measured seconds")
	bin := flag.String("bin", "", "directory holding kbserve and kbrouter")
	work := flag.String("work", "", "directory for temporary files and traces")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, bench.RunLimit)
	err := run(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *bin, *work)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workload string, seed int64, d time.Duration, bin, work string) error {
	if bin == "" || work == "" {
		return errors.New("-bin and -work are required")
	}
	// build has no query traffic of its own; its traced run serves the
	// lookup mix so that every layer metric exists on every workload.
	mixName := workload
	switch workload {
	case bench.Build:
		mixName = bench.Lookup
	case bench.Lookup, bench.Join:
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	tmp, err := os.MkdirTemp(work, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rep := &bench.Report{}
	st, snapshots, err := buildLayers(ctx, rep, tmp, seed)
	if err != nil {
		return err
	}
	mix, err := bench.NewMix(mixName, st, seed)
	if err != nil {
		return err
	}
	want, err := bench.Expect(ctx, st, mix)
	if err != nil {
		return err
	}
	if err := readLayers(ctx, rep, st, mix); err != nil {
		return err
	}
	chain, err := bench.ChainJoin(st, seed)
	if err != nil {
		return err
	}
	chainMix := &bench.Mix{Queries: []bench.Query{chain}, Seq: []int32{0}}
	chainWant, err := bench.Expect(ctx, st, chainMix)
	if err != nil {
		return err
	}
	st = nil // the shards hold their own copies

	spans, err := serveLayers(ctx, rep, bin, tmp, snapshots, d, mix, want, bench.OpenRate[mixName], chainMix, chainWant)
	if err != nil {
		return err
	}
	traces := filepath.Join(work, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)), spans); err != nil {
		return err
	}
	return rep.Write(os.Stdout, fmt.Sprintf("traced workload %s, seed %d, %v measured", workload, seed, d))
}

// buildLayers runs the build in-process — pipeline.Run, a direct batch
// write, snapshot save and load — and returns the loaded, merged store
// and the shard files it saved.
func buildLayers(ctx context.Context, rep *bench.Report, dir string, seed int64) (*core.Store, []string, error) {
	opt := pipeline.DefaultOptions()
	opt.World = synth.DefaultConfig().Scaled(bench.Scale)
	opt.Seed = seed
	res, err := pipeline.Run(ctx, opt)
	if err != nil {
		return nil, nil, err
	}
	took := map[string]time.Duration{}
	for _, t := range res.Timings {
		took[t.Stage] = t.Duration
	}
	for _, s := range stages {
		d, ok := took[s]
		if !ok {
			return nil, nil, fmt.Errorf("pipeline reported no %s stage", s)
		}
		rep.Set("pipeline."+s+"_s", d.Seconds(), "s")
	}
	rep.Set("pipeline.candidates", float64(res.Candidates), "count")
	rep.Set("pipeline.accepted", float64(res.Accepted), "count")

	// The accepted relational facts and their metadata, written again in
	// one batch into a fresh store: the assert stage's work without the
	// write-behind ingest layer.
	var ts []rdf.Triple
	var infos []core.FactInfo
	for _, rel := range synth.Schema {
		res.KB.MatchFunc(rdf.Triple{P: rdf.NewIRI(rel.ID)}, func(id core.FactID, t rdf.Triple) bool {
			info, _ := res.KB.Info(id) // a fact without metadata batches its zero value
			ts = append(ts, t)
			infos = append(infos, info)
			return true
		})
	}
	t0 := time.Now()
	core.NewStore().AddBatchMeta(ts, infos)
	rep.Set("core.addbatch_s", time.Since(t0).Seconds(), "s")

	paths := make([]string, bench.Shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("kb.%d.nt", i))
	}
	t0 = time.Now()
	err = res.KB.SaveShardFiles(paths, func(t rdf.Triple) int { return shardkb.TripleShard(t, bench.Shards) })
	if err != nil {
		return nil, nil, err
	}
	rep.Set("core.save_s", time.Since(t0).Seconds(), "s")
	size := int64(0)
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, nil, err
		}
		size += fi.Size()
	}
	rep.Set("core.snapshot_bytes", float64(size), "bytes")
	t0 = time.Now()
	st, err := bench.LoadSnapshots(paths)
	if err != nil {
		return nil, nil, err
	}
	rep.Set("core.load_s", time.Since(t0).Seconds(), "s")
	if st.Len() != res.KB.Len() {
		return nil, nil, fmt.Errorf("snapshot round-trips %d facts, built %d", st.Len(), res.KB.Len())
	}
	return st, paths, nil
}

// readLayers times the read path in-process over the first sampleSize
// queries of the mix: the engine with no cache, warm result-cache hits,
// and reply rendering plus JSON encoding.
func readLayers(ctx context.Context, rep *bench.Report, st *core.Store, mix *bench.Mix) error {
	sample := make([][]core.Pattern, sampleSize)
	for i := range sample {
		ps, err := mix.Queries[mix.At(int64(i))].Parse()
		if err != nil {
			return err
		}
		sample[i] = ps
	}
	n := float64(len(sample))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, ps := range sample {
		if err := st.QueryFunc(ctx, ps, 0, func(core.Binding) bool { return true }); err != nil {
			return err
		}
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	rep.Set("engine.query_us", micros(took)/n, "us")
	rep.Set("engine.allocs_per_query", float64(after.Mallocs-before.Mallocs)/n, "count")

	// Room for every sample query, so the second pass only hits.
	cache := qcache.New(st, qcache.Options{PerShard: len(sample)})
	results := make([][]core.Binding, len(sample))
	for i, ps := range sample {
		bs, _, err := cache.Query(ctx, ps, 0)
		if err != nil {
			return err
		}
		results[i] = bs
	}
	t0 = time.Now()
	for _, ps := range sample {
		if _, hit, err := cache.Query(ctx, ps, 0); err != nil || !hit {
			return fmt.Errorf("qcache: warm query missed (err %v)", err)
		}
	}
	rep.Set("qcache.hit_us", micros(time.Since(t0))/n, "us")

	enc := json.NewEncoder(io.Discard)
	enc.SetEscapeHTML(false) // as serve.WriteJSON encodes
	t0 = time.Now()
	for i, ps := range sample {
		if err := enc.Encode(serve.BuildQueryResponse(results[i], serve.HasVars(ps))); err != nil {
			return err
		}
	}
	rep.Set("serve.encode_us", micros(time.Since(t0))/n, "us")
	return nil
}

// serveLayers runs the serving tier with two routers over the same two
// shards: one direct, one through the timing proxies. The direct router
// takes the warm-up, an untraced one-client closed loop (the base of
// trace.overhead_ratio) and an open loop at the workload's rate (the
// generator's lateness); the proxied one takes the traced one-client
// closed loop the span metrics come from. Last, the direct router gets
// the chain join alone, and the shards count the RPCs it costs.
func serveLayers(ctx context.Context, rep *bench.Report, bin, tmp string, snapshots []string, d time.Duration,
	mix *bench.Mix, want []bench.Answer, rate float64, chainMix *bench.Mix, chainWant []bench.Answer) ([]span, error) {
	procs := bench.NewProcs(bin, tmp)
	defer procs.StopAll()
	shards, err := procs.StartShards(snapshots)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	direct := make([]string, len(shards))
	proxied := make([]string, len(shards))
	for i, s := range shards {
		p, err := startProxy(fmt.Sprintf("shard%d", i), s.URL, rec)
		if err != nil {
			return nil, err
		}
		defer p.close()
		direct[i], proxied[i] = s.URL, p.URL
	}
	plain, err := procs.StartRouter(direct)
	if err != nil {
		return nil, err
	}
	traced, err := procs.StartRouter(proxied)
	if err != nil {
		return nil, err
	}
	if err := bench.WaitReady(ctx, append(shards, plain, traced)...); err != nil {
		return nil, err
	}

	var next atomic.Int64
	a := bench.NewClient(plain.URL, 2, mix, want)
	defer a.Close()
	rep.Count(a.Closed(ctx, 2, warmup, &next, nil))
	untraced := a.Closed(ctx, 1, d/4, &next, nil)
	rep.Count(untraced)
	open := a.Open(ctx, 2, rate, d/4, &next)
	rep.Count(open)
	rep.Set("loadgen.late_p99_ms", bench.Quantile(bench.Millis(open.Late), 0.99), "ms")

	rec.take() // spans of the untraced phases went around the proxies; drop any strays
	before, err := shardStats(ctx, shards)
	if err != nil {
		return nil, err
	}
	b := bench.NewClient(traced.URL, 1, mix, want)
	defer b.Close()
	var ops []bench.Op
	tr := b.Closed(ctx, 1, d/2, &next, func(_ int, op bench.Op) { ops = append(ops, op) })
	rep.Count(tr)
	after, err := shardStats(ctx, shards)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, t := range []bench.Tally{untraced, open, tr} {
		if t.FirstErr != nil {
			fmt.Fprintln(os.Stderr, "traced: first failure:", t.FirstErr)
		}
	}
	hits, misses := after.hits-before.hits, after.misses-before.misses
	rep.Set("shard.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")

	before = after
	c := bench.NewClient(plain.URL, 1, chainMix, chainWant)
	defer c.Close()
	if op := c.Do(ctx, 0); op.Err != nil {
		rep.Failed++
		fmt.Fprintln(os.Stderr, "traced: chain join:", op.Err)
	}
	rep.Attempted++
	if after, err = shardStats(ctx, shards); err != nil {
		return nil, err
	}
	rep.Set("router.chain_rpcs_per_query", float64(after.queries-before.queries), "count")

	rep.Set("trace.overhead_ratio", bench.Quantile(bench.Millis(tr.Lat), 0.5)/bench.Quantile(bench.Millis(untraced.Lat), 0.5), "ratio")
	return spanMetrics(rep, ops, rec.take()), nil
}

// spanMetrics makes each client request a span, parents every proxy span
// to the request in flight when it started — there is one client, so
// requests never overlap — and derives the router and shard metrics.
// It returns all spans, client requests first.
func spanMetrics(rep *bench.Report, ops []bench.Op, rpcs []span) []span {
	sort.Slice(rpcs, func(i, j int) bool { return rpcs[i].Start.Before(rpcs[j].Start) })
	spans := make([]span, 0, len(ops)+len(rpcs))
	for i, op := range ops {
		spans = append(spans, span{ID: i + 1, Name: "client /query", Start: op.Sent, End: op.Done, Bytes: op.Bytes, TookUS: op.TookUS})
	}
	var (
		queryRPCs, estRPCs, shardBytes int
		rpcUS, queryUS, shardTookUS    float64
		clientUS, routerTookUS, selfUS float64
		clientBytes                    int
		rpcDur                         []float64
		children                       = make([][]span, len(ops))
		next                           int
	)
	for _, c := range rpcs {
		for next < len(ops) && ops[next].Done.Before(c.Start) {
			next++
		}
		if next == len(ops) || c.Start.Before(ops[next].Sent) {
			continue // outside every request: not a query's RPC
		}
		c.ID, c.Parent = len(spans)+1, next+1
		spans = append(spans, c)
		children[next] = append(children[next], c)
		us := micros(c.End.Sub(c.Start))
		rpcUS += us
		rpcDur = append(rpcDur, us)
		shardBytes += c.Bytes
		if strings.HasSuffix(c.Name, "/query") {
			queryRPCs++
			queryUS += us
			shardTookUS += float64(c.TookUS)
		} else {
			estRPCs++
		}
	}
	for i, op := range ops {
		dur := micros(op.Done.Sub(op.Sent))
		clientUS += dur
		routerTookUS += float64(op.TookUS)
		clientBytes += op.Bytes
		selfUS += dur - micros(covered(op.Sent, op.Done, children[i]))
	}
	n := float64(len(ops))
	rep.Set("router.rpcs_per_query", float64(queryRPCs)/n, "count")
	rep.Set("router.estimate_rpcs_per_query", float64(estRPCs)/n, "count")
	rep.Set("router.self_ms", selfUS/n/1000, "ms")
	rep.Set("router.took_coverage", routerTookUS/clientUS, "ratio")
	rep.Set("shard.rpc_ms_per_query", rpcUS/n/1000, "ms")
	rep.Set("shard.rpc_p50_us", bench.Quantile(rpcDur, 0.5), "us")
	rep.Set("shard.took_coverage", shardTookUS/queryUS, "ratio")
	rep.Set("wire.shard_bytes_per_query", float64(shardBytes)/n, "bytes")
	rep.Set("wire.client_bytes_per_query", float64(clientBytes)/n, "bytes")
	return spans
}

// covered returns how much of [from, to] the union of the spans covers.
// The spans are sorted by start.
func covered(from, to time.Time, spans []span) time.Duration {
	var total time.Duration
	end := from
	for _, s := range spans {
		start := s.Start
		if start.Before(end) {
			start = end
		}
		stop := s.End
		if stop.After(to) {
			stop = to
		}
		if stop.After(start) {
			total += stop.Sub(start)
			end = stop
		}
	}
	return total
}

// shardTotals sums counters from the shards' /statsz.
type shardTotals struct{ hits, misses, queries uint64 }

func shardStats(ctx context.Context, shards []*bench.Proc) (shardTotals, error) {
	var t shardTotals
	for _, s := range shards {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/statsz", nil)
		if err != nil {
			return t, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return t, err
		}
		var st serve.StatszResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return t, fmt.Errorf("%s /statsz: %w", s.Name, err)
		}
		t.hits += st.Cache.Hits
		t.misses += st.Cache.Misses
		t.queries += st.Latency.Count
	}
	return t, nil
}

// writeSpans writes one JSON object per span, times in microseconds
// since the first span started.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var origin time.Time
	if len(spans) > 0 {
		origin = spans[0].Start
	}
	for _, s := range spans {
		err := enc.Encode(struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent,omitempty"`
			Name    string `json:"name"`
			StartUS int64  `json:"start_us"`
			EndUS   int64  `json:"end_us"`
			Bytes   int    `json:"bytes"`
			TookUS  int64  `json:"took_us"`
		}{s.ID, s.Parent, s.Name, s.Start.Sub(origin).Microseconds(), s.End.Sub(origin).Microseconds(), s.Bytes, s.TookUS})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
