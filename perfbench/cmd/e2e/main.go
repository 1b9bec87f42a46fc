// Command e2e is the untraced run of the repository benchmark: it drives
// the kbbuild, kbserve and kbrouter binaries through their command lines
// and the /query protocol only, checks every answer, and prints the
// end-to-end metrics. perfbench/run.py builds the binaries and runs it:
//
//	python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"kbharvest/internal/core"
	"kbharvest/perfbench/bench"
)

const (
	// clients is both the closed loop's client count and the open loop's
	// connection count: one per core of the 2-core machine the benchmark
	// was sized on.
	clients = 2
	// builds is how many times lookup and join build their snapshot;
	// build_s is the median. loads and launches are how many times each
	// workload repeats its set-up; setup_s is the median. Medians of
	// repeats keep the figures steady on a machine whose speed varies
	// from second to second.
	builds   = 3
	loads    = 3 // per build
	launches = 15
	// window is the length of the closed-loop windows; qps is the median
	// of their rates, for the same reason. The open loop's latency
	// quantiles are likewise medians over the windows' worth of requests
	// due in each window. The tail reported is the 90th percentile: the
	// 99th moved by more than half between runs of the same seed on a
	// 2-core shared machine.
	window = 500 * time.Millisecond
	// warmup fills the shard caches before anything is timed.
	warmup = 2 * time.Second
)

func main() {
	workload := flag.String("workload", "", "build, lookup or join")
	seed := flag.Int64("seed", 1, "seed for kbbuild and the query generator")
	seconds := flag.Int("seconds", 20, "measured seconds")
	bin := flag.String("bin", "", "directory holding kbbuild, kbserve and kbrouter")
	work := flag.String("work", "", "directory for temporary files")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, bench.RunLimit)
	err := run(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *bin, *work)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workload string, seed int64, d time.Duration, bin, work string) error {
	if bin == "" || work == "" {
		return errors.New("-bin and -work are required")
	}
	tmp, err := os.MkdirTemp(work, "e2e-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var rep *bench.Report
	switch workload {
	case bench.Build:
		rep, err = runBuild(ctx, bin, tmp, seed, d)
	case bench.Lookup, bench.Join:
		rep, err = runServe(ctx, workload, bin, tmp, seed, d)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	return rep.Write(os.Stdout, fmt.Sprintf("workload %s, seed %d, %v measured", workload, seed, d))
}

// runBuild runs kbbuild back to back for d. After each build it loads the
// written shards back — the set-up every reader of the build pays — and
// checks that they hold the fact count kbbuild reported. A build is the
// workload's operation, so qps (one over the median build) and the
// latency quantiles describe builds.
func runBuild(ctx context.Context, bin, tmp string, seed int64, d time.Duration) (*bench.Report, error) {
	var walls, setups, rss []float64
	rep := &bench.Report{}
	f1 := 0.0
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		b, err := bench.RunBuild(ctx, bin, tmp, seed)
		if err != nil {
			return nil, err
		}
		var st *core.Store
		for i := 0; i < loads; i++ {
			t0 := time.Now()
			if st, err = bench.LoadSnapshots(b.Snapshots); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		walls = append(walls, b.Wall.Seconds())
		rss = append(rss, b.PeakRSS)
		rep.Attempted++
		if st.Len() != b.Facts {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "e2e: shards round-trip %d facts, kbbuild built %d\n", st.Len(), b.Facts)
		}
		if f1 == 0 {
			f1 = bench.FactF1(st, seed)
		}
	}
	med := bench.Quantile(walls, 0.5)
	rep.Set("setup_s", bench.Quantile(setups, 0.5), "s")
	rep.Set("build_s", med, "s")
	rep.Set("fact_f1", f1, "ratio")
	rep.Set("qps", 1/med, "1/s")
	rep.Set("lat_p50_ms", 1000*med, "ms")
	rep.Set("lat_p90_ms", 1000*bench.Quantile(walls, 0.9), "ms")
	rep.Set("peak_rss_mb", bench.Quantile(rss, 0.5), "MiB")
	return rep, nil
}

// runServe builds the snapshot, outside every serving clock, then
// measures the serving tier: set-up, closed-loop throughput and open-loop
// latency.
func runServe(ctx context.Context, workload, bin, tmp string, seed int64, d time.Duration) (*bench.Report, error) {
	var b *bench.BuildRun
	walls := make([]float64, builds)
	for i := range walls {
		var err error
		if b, err = bench.RunBuild(ctx, bin, tmp, seed); err != nil {
			return nil, err
		}
		walls[i] = b.Wall.Seconds()
	}
	st, err := bench.LoadSnapshots(b.Snapshots)
	if err != nil {
		return nil, err
	}
	if st.Len() != b.Facts {
		return nil, fmt.Errorf("shards hold %d facts, kbbuild built %d", st.Len(), b.Facts)
	}
	mix, err := bench.NewMix(workload, st, seed)
	if err != nil {
		return nil, err
	}
	want, err := bench.Expect(ctx, st, mix)
	if err != nil {
		return nil, err
	}
	rep := &bench.Report{}
	rep.Set("build_s", bench.Quantile(walls, 0.5), "s")
	rep.Set("fact_f1", bench.FactF1(st, seed), "ratio")
	st = nil // the tier holds its own copy; let the collector have this one

	procs := bench.NewProcs(bin, tmp)
	defer procs.StopAll()
	var tier *bench.Tier
	setups := make([]float64, launches)
	for i := range setups {
		if tier != nil {
			procs.KillTier(tier)
		}
		var took time.Duration
		tier, took, err = procs.StartTier(ctx, b.Snapshots)
		if err != nil {
			return nil, err
		}
		setups[i] = took.Seconds()
	}
	rep.Set("setup_s", bench.Quantile(setups, 0.5), "s")

	client := bench.NewClient(tier.Router.URL, clients, mix, want)
	defer client.Close()
	var next atomic.Int64
	rep.Count(client.Closed(ctx, clients, warmup, &next, nil))
	closed := client.Closed(ctx, clients, d/2, &next, nil)
	rep.Count(closed)
	open := client.Open(ctx, clients, bench.OpenRate[workload], d/2, &next)
	rep.Count(open)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, t := range []bench.Tally{closed, open} {
		if t.FirstErr != nil {
			fmt.Fprintln(os.Stderr, "e2e: first failure:", t.FirstErr)
		}
	}
	rep.Set("qps", bench.Quantile(closed.WindowRates(window), 0.5), "1/s")
	lat := bench.Millis(open.Lat)
	block := int(bench.OpenRate[workload] * window.Seconds())
	rep.Set("lat_p50_ms", bench.BlockQuantile(lat, block, 0.5), "ms")
	rep.Set("lat_p90_ms", bench.BlockQuantile(lat, block, 0.9), "ms")
	rss := 0.0
	for _, p := range tier.All() {
		mb, err := p.PeakRSSMiB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	rep.Set("peak_rss_mb", rss, "MiB")
	late := bench.Millis(open.Late)
	fmt.Fprintf(os.Stderr, "e2e: open loop %d requests at %.0f/s, generator late p99 %.3f ms\n",
		open.Attempted, bench.OpenRate[workload], bench.Quantile(late, 0.99))
	return rep, nil
}
