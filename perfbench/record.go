package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// recMetric is one metric of a result record: its value and unit, the
// count, median and quartiles of the samples it was computed from, and a
// note on how (which percentile, which ratio).
type recMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples *dist   `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// hostInfo fingerprints the machine a record was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	//lint:allow errsink read-only file: a close error cannot lose data
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// ticks stolen by the hypervisor and all ticks (zeros where there is no
// such file).
func cpuTicks() (steal, total int64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[min(1, len(fields)):] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// record is one run's result file: what ran, where, and every metric with
// its samples. The JSON result line is derived from it.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Host       hostInfo `json:"host"`
	Started    string   `json:"started"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	ErrorRatio float64  `json:"error_ratio"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// stole during the run: runs made under different steal do not
	// compare.
	StealShare float64              `json:"steal_share"`
	Metrics    map[string]recMetric `json:"metrics"`
	Detail     map[string]any       `json:"detail,omitempty"`

	spans []Span
}

func newRecord(name string, seed int64, budget time.Duration, traced bool) *record {
	r := &record{Workload: name, Seed: seed, Seconds: budget.Seconds(), Host: currentHost(),
		Started: time.Now().UTC().Format(time.RFC3339), Metrics: map[string]recMetric{}, Detail: map[string]any{}}
	if traced {
		r.Trace = 1
	}
	return r
}

// absorb adds a phase's operation counts and the given metrics to the
// record.
func (r *record) absorb(p *phase, metrics map[string]measured) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Correct = r.Attempted > 0 && r.Failed == 0
	r.ErrorRatio = ratio(float64(r.Failed), float64(r.Attempted))
	for name, m := range metrics {
		rm := recMetric{Value: m.Value, Unit: m.Unit, Note: m.Note}
		if m.Samples != nil {
			d := describe(m.Samples)
			rm.Samples = &d
		}
		r.Metrics[name] = rm
	}
	for k, v := range p.detail {
		r.Detail[k] = v
	}
}

func (r *record) baseName() string {
	return fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, r.Trace)
}

// write stores the record, and a traced run's spans, under dir.
func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.spans != nil {
		path := filepath.Join(dir, r.baseName()+"-spans.jsonl")
		if err := writeSpans(path, r.spans); err != nil {
			return err
		}
		r.Detail["spans_file"] = path
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.baseName()+".json"), append(buf, '\n'), 0o644)
}

// resultLine is the last line of the command's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, then the JSON result line.
func (r *record) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s seed=%d trace=%d nproc=%d cpu=%q %s steal=%.3f\n", r.Workload, r.Seed, r.Trace, r.Host.NumCPU, r.Host.CPUModel, r.Host.GoVersion, r.StealShare)
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.Samples != nil {
			samples = fmt.Sprintf("n=%d q1=%.4g q3=%.4g", m.Samples.N, m.Samples.Q1, m.Samples.Q3)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", n, m.Value, m.Unit, samples, m.Note)
		line.Metrics[n] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	fmt.Fprintf(tw, "checked\t%d\tops\t%d failed\terror_ratio %.4g\n", r.Attempted, r.Failed, r.ErrorRatio)
	tw.Flush()
	buf, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", buf)
}

// readRecords decodes every record in a result file: one record, or many
// concatenated (cat a/*.json > all.json).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:allow errsink read-only file: a close error cannot lose data
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []record
	for {
		var r record
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// runCompare reads two result files and prints, for each workload and
// end-to-end metric, both sides' medians over their untraced runs, the
// relative change and whether it is worse than the metric's bound allows.
// It reports and never fails on a regression.
func runCompare(w io.Writer, def *definition, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			if r.Trace == 0 {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	o, n := byWorkload(olds), byWorkload(news)
	var names []string
	for wl := range o {
		if _, ok := n[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("the two files share no workload with untraced runs")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tdelta\tbound\tverdict")
	for _, wl := range names {
		for _, m := range def.EndToEnd {
			ov, on := values(o[wl], m.Name)
			nv, nn := values(n[wl], m.Name)
			if on == 0 || nn == 0 {
				continue
			}
			delta := ratio(nv-ov, ov)
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict = "WORSE than bound"
			case worse < 0:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (n=%d)\t%.6g (n=%d)\t%+.2f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, ov, on, nv, nn, 100*delta, 100*m.Bound, verdict)
		}
	}
	return tw.Flush()
}

// values returns the median of a metric over records and how many carried
// it.
func values(rs []record, name string) (float64, int) {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return median(xs), len(xs)
}
