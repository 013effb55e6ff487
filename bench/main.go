// Command bench is LiveSec's wall-clock benchmark: two workloads drive a
// livesecd subprocess over loopback TCP, two drive the simulated FIT
// campus, and each reports the same end-to-end metrics, checks its
// outputs, and can break its time down by layer. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json's run_seconds repeats it.
const runSeconds = 20

// childTimeout bounds one workload run, build excluded: the contract
// allows a run 180 seconds.
const childTimeout = 170 * time.Second

// buildDir holds everything the benchmark writes, relative to the root
// of the checkout; .gitignore names it.
const buildDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	aa       int
	child    bool
	livesecd string
}

func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(buildDir, "trace"), "directory the traced run writes its spans to")
	fs.IntVar(&o.aa, "aa", 0, "run this many A/A sets of ten seeds per workload and compare them")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.StringVar(&o.livesecd, "livesecd", "", "internal: path of the livesecd binary under test")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds %d: want 1 to 60", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if err := validateMetrics(endToEnd, perLayer); err != nil {
		return err
	}
	if o.child {
		return runChild(o, stdout)
	}

	names := workloadNames()
	if o.workload != "all" {
		if !slices.Contains(names, o.workload) {
			return fmt.Errorf("unknown workload %q; have %s", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := os.Chdir(root); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.livesecd, err = buildLivesecd(ctx, stdout); err != nil {
		return err
	}
	if o.aa > 0 {
		return runAA(ctx, o, names, stdout)
	}
	bad := 0
	for _, name := range names {
		out, err := spawn(ctx, o, name, o.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printOutcome(stdout, out, o.trace == 1)
		if !out.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads failed their checks", bad, len(names))
	}
	return nil
}

func workloadNames() []string {
	ns := make([]string, len(workloads))
	for i, w := range workloads {
		ns[i] = w.Name
	}
	return ns
}

// findRoot locates the checkout: the directory holding cmd/livesecd,
// which is the working directory or, under `go -C bench run .`, its
// parent.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "livesecd")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/livesecd not found here or one level up: run from the repository root")
}

// buildLivesecd compiles the daemon under test from source. Build time
// is run metadata, not part of any metric.
func buildLivesecd(ctx context.Context, stdout io.Writer) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "livesecd"))
	if err != nil {
		return "", err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/livesecd")
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/livesecd: %v\n%s", err, b)
	}
	fmt.Fprintf(stdout, "# built livesecd in %.2f s (%s, GOMAXPROCS %d, %d CPUs)\n",
		time.Since(start).Seconds(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	return bin, nil
}

// spawn runs one workload in a child process of its own, so that its
// peak memory and collector state are its own, and returns what it
// reported. The child's progress and errors go to this process's stderr.
func spawn(ctx context.Context, o options, name string, seed int64) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.out, "-livesecd", o.livesecd)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	b, err := cmd.Output()
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("stopped after %v: %w", childTimeout, ctx.Err())
		}
		return nil, err
	}
	var out outcome
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("unreadable result from child: %v: %q", err, b)
	}
	return &out, nil
}

// runChild runs one workload in this process and writes its outcome as
// one JSON document.
func runChild(o options, stdout io.Writer) error {
	out, err := runWorkload(o.workload, o.livesecd, o.seed, o.seconds, o.trace == 1, o.out)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(out)
}

// reported is the form the benchmark contract fixes for the last line
// of a run's standard output.
type reported struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printOutcome prints every metric of a run by name and unit, then the
// contract's result line: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printOutcome(w io.Writer, out *outcome, traced bool) {
	fmt.Fprintf(w, "workload %s seed %d\n", out.Workload, out.Seed)
	line := func(d metricDef, v float64) {
		fmt.Fprintf(w, "  %-32s %16.6g %-7s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	for _, d := range endToEnd {
		line(d, out.EndToEnd[d.Name])
	}
	rep := reported{Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]reportedValue{}}
	if traced {
		for _, d := range perLayer {
			line(d, out.PerLayer[d.Name])
			rep.Metrics[d.Name] = reportedValue{out.PerLayer[d.Name], d.Unit}
		}
		fmt.Fprintf(w, "  spans written to %s\n", out.SpanFile)
	} else {
		for _, d := range endToEnd {
			rep.Metrics[d.Name] = reportedValue{out.EndToEnd[d.Name], d.Unit}
		}
	}
	if out.Fingerprint != "" {
		fmt.Fprintf(w, "  fingerprint %s\n", out.Fingerprint)
	}
	for _, n := range out.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed", out.Attempted, out.Failed)
	if out.Why != "" {
		fmt.Fprintf(w, "; first failure: %s", out.Why)
	}
	fmt.Fprintln(w)
	b, _ := json.Marshal(rep)
	fmt.Fprintf(w, "%s\n", b)
}
