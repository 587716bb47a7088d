// Command perfbench is the repository benchmark. It runs one workload
// of the quicscan system against a simulated Internet built from a
// seed, checks every output against the universe's ground truth, and
// prints one JSON result line:
//
//	go run . --workload scan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 a separate traced run times the calls
// into each module from outside and reports the per-layer metrics,
// the layer ladder and the tracing overhead. NOTES.md explains the
// workloads and what each metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to main: both metric sets,
// the ground-truth tally and the trace artifacts.
type outcome struct {
	e2e     map[string]float64
	layer   map[string]float64
	checked int
	failed  int
	ladder  []ladderRow
	spans   []span
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// workloads maps --workload names to their runners.
var workloads = map[string]func(options) (*outcome, error){
	"campaign": runCampaign,
	"scan":     runScan,
	"sweep":    runSweep,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: campaign, scan or sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "universe seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	o.trace = trace == 1

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn := workloads[o.workload]
	if fn == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	prov := provenance(o)
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)

	out, err := fn(o)
	if err != nil {
		return err
	}

	want, got := spec.EndToEnd, out.e2e
	if o.trace {
		want, got = spec.PerLayer, out.layer
		printLadder(os.Stdout, o.workload, out.ladder)
		if err := writeSpans(o, prov, out.spans); err != nil {
			return err
		}
	}
	metrics, err := pick(want, got)
	if err != nil {
		return err
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.checked, out.failed, metrics}
	if res.Attempted < 1 {
		return errors.New("no output was checked")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// metric names and units it must report.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// pick returns exactly the metrics the spec lists, failing when the
// workload produced a different set, so BENCHMARK.json and the code
// cannot drift apart.
func pick(want []specMetric, got map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	var missing, extra []string
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metric set differs from BENCHMARK.json: missing [%s], unlisted [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return out, nil
}
