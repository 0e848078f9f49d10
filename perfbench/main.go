// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's entry points in a closed loop, checks
// the outputs, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1). Build and run it
// from the repository root with
//
//	bash perfbench/run.sh --workload fleet --seed 1996 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// metrics BENCHMARK.json lists. The lines before it print every metric
// the workload defines, by name and unit, with the run's provenance, the
// output digest and the failed jobs. The exit status is 1 when a
// determinism check fails (a job's output differs between passes, the
// traced run's digest differs from the untraced run's, or a fleet row at
// workers=2 differs from workers=1), and 2 on a usage error.
//
// Each run starts the benchmark binary again as child processes: several
// that only set the workload up, so setup_s is a median, and one that
// sets up and then runs the jobs, so peak_rss_mb is that process's own.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is set at build time by run.sh.
var commit = "unknown"

// setupRepeats is the number of set-up-only children per timed run; with
// the run child that gives sixteen set-up samples.
const setupRepeats = 15

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	child    string // "", "setup" or "run"
}

// passes is the run length: the number of passes over the job list that
// take --seconds on the reference machine (a 2-core AMD EPYC). A fixed
// count, rather than a deadline, gives every run of a seed the same work,
// so a faster program is not charged for the extra jobs it would fit in.
func (o options) passes() int {
	w, _ := findWorkload(o.workload)
	return max(1, int(math.Round(float64(o.seconds)/w.passSeconds)))
}

func (o options) args(child string) []string {
	return []string{
		"--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds),
		"--trace", strconv.FormatBool(o.trace),
		"--child", child,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1996, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 25, "run length, in seconds on the reference machine")
	traceFlag := fs.String("trace", "0", "1 for the traced per-layer run")
	fs.StringVar(&o.child, "child", "", "internal: run as a set-up or run child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	trace, err := strconv.ParseBool(*traceFlag)
	if err != nil || o.seconds < 1 || (o.child != "" && o.child != "setup" && o.child != "run") {
		fmt.Fprintf(stderr, "perfbench: bad --trace %q, --seconds %d or --child %q\n", *traceFlag, o.seconds, o.child)
		return 2
	}
	o.trace = trace
	if _, ok := findWorkload(o.workload); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}

	if o.child != "" {
		if err := runChild(o, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	rep, setups, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", o.workload, err)
		return 1
	}
	return printResult(stdout, stderr, o, rep, setups)
}

// measure runs the children and gathers the run child's report and the
// set-up times.
func measure(o options, stderr io.Writer) (*report, []float64, error) {
	var setups []float64
	if !o.trace {
		for i := 0; i < setupRepeats; i++ {
			s, _, err := spawn(o, "setup", stderr)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, s)
		}
	}
	s, rep, err := spawn(o, "run", stderr)
	if err != nil {
		return nil, nil, err
	}
	return rep, append(setups, s), nil
}

// spawn starts the benchmark binary as a child, times its set-up from
// start to its ready line, reads its report in run mode, and waits for it
// to exit. The child is killed if this process dies first.
func spawn(o options, mode string, stderr io.Writer) (float64, *report, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.Command(self, o.args(mode)...)
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	//lint:allow nowallclock set-up time is host time from process start, measured outside the simulation
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	r := bufio.NewReader(out)
	line, readErr := r.ReadString('\n')
	//lint:allow nowallclock see above
	setup := time.Since(start).Seconds()
	var rep *report
	if readErr == nil && strings.TrimSpace(line) != readyLine {
		readErr = fmt.Errorf("child printed %q before its ready line", line)
	}
	if readErr == nil && mode == "run" {
		rep = &report{}
		readErr = json.NewDecoder(r).Decode(rep)
	}
	if readErr != nil {
		cmd.Process.Kill()
	}
	io.Copy(io.Discard, r) // drain so the child never blocks on a full pipe
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	if readErr != nil {
		return 0, nil, fmt.Errorf("%s child: %w", mode, readErr)
	}
	return setup, rep, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints the human-readable report, then the result line.
func printResult(stdout, stderr io.Writer, o options, rep *report, setups []float64) int {
	if len(setups) > 0 {
		rep.Metrics["setup_s"] = median(setups)
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "provenance: num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d jobs_per_pass=%d passes=%d jobs_per_run=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, rep.Jobs, rep.Passes, rep.Attempted)
	if len(setups) > 0 {
		fmt.Fprintf(stdout, "setup samples (s): %v\n", setups)
	}
	tails := map[string]tail{}
	for _, t := range rep.Tails {
		tails[t.Name] = t
	}
	res := result{Correct: len(rep.Problems) == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, def := range catalog {
		if def.traced != o.trace {
			continue
		}
		v, ok := rep.Metrics[def.name]
		switch {
		case ok:
			note := ""
			if t, isTail := tails[def.name]; isTail {
				note = "  (" + t.String() + ")"
			}
			fmt.Fprintf(stdout, "  %-32s %16.6g %-10s%s\n", def.name, v, def.unit, note)
		default:
			fmt.Fprintf(stdout, "  %-32s %16s %-10s\n", def.name, "absent", def.unit)
		}
		if def.gated {
			if !ok {
				missing = append(missing, def.name)
			}
			res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		}
	}
	fmt.Fprintf(stdout, "digest: %s\n", rep.Digest)
	fmt.Fprintf(stdout, "failed jobs: %d of %d attempted (%d distinct)\n", rep.Failed, rep.Attempted, len(rep.Failures))
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "  %s\n", f)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "DETERMINISM: %s\n", p)
	}
	for _, a := range rep.Artifacts {
		fmt.Fprintf(stdout, "wrote %s\n", a)
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench %s: BENCHMARK.json metrics not measured: %s\n", o.workload, strings.Join(missing, ", "))
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
