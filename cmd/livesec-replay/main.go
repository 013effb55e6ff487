// Command livesec-replay demonstrates history replay (§III.D.2,
// §V.B.4): it runs the Figures 7–8 monitoring scenario in the
// simulator, records the event log to a JSON file, and then replays a
// time window from that file — the workflow an operator uses to locate
// a past network problem.
//
// Usage:
//
//	livesec-replay -record events.json           # run scenario, save log
//	livesec-replay -replay events.json           # replay everything
//	livesec-replay -replay events.json -from 1s -to 3s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"livesec/internal/experiments"
	"livesec/internal/monitor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livesec-replay:", err)
		os.Exit(1)
	}
}

func run() error {
	record := flag.String("record", "", "run the Fig.7/8 scenario and record its event log to FILE")
	replay := flag.String("replay", "", "replay a recorded event log from FILE")
	from := flag.Duration("from", 0, "replay window start (virtual time)")
	to := flag.Duration("to", 0, "replay window end (0 = open)")
	flag.Parse()

	switch {
	case *record != "":
		return doRecord(*record)
	case *replay != "":
		return doReplay(os.Stdout, *replay, *from, *to)
	default:
		// Default: record to a temp file and replay it immediately.
		tmp, err := os.CreateTemp("", "livesec-events-*.json")
		if err != nil {
			return err
		}
		path := tmp.Name()
		tmp.Close()
		defer os.Remove(path)
		if err := doRecord(path); err != nil {
			return err
		}
		fmt.Println()
		return doReplay(os.Stdout, path, 0, 0)
	}
}

// recordedLog is the on-disk format.
type recordedLog struct {
	RecordedAt string          `json:"recordedAt"`
	Scenario   string          `json:"scenario"`
	Events     []monitor.Event `json:"events"`
}

func doRecord(path string) error {
	fmt.Println("running the Figures 7–8 scenario (5 wireless users, 2 IDS + 2 L7 elements)…")
	res := experiments.E6EventPipeline()
	fmt.Print(res.String())

	// Re-run the store capture: E6 drives a Store internally; to keep the
	// tool self-contained we rerun the scenario and read its whole log
	// through Store.Events, which describes each flow. The experiment
	// function is deterministic, so a second pass yields the identical log.
	events := experiments.E6CaptureEvents()
	log := recordedLog{
		RecordedAt: time.Now().Format(time.RFC3339),
		Scenario:   "figures-7-8",
		Events:     events,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(log); err != nil {
		return err
	}
	fmt.Printf("recorded %d events to %s\n", len(events), path)
	return nil
}

func doReplay(w io.Writer, path string, from, to time.Duration) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var log recordedLog
	if err := json.Unmarshal(data, &log); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	// The log holds events as Store.Events returned them, users named and
	// flows described, so the window is replayed straight from it.
	fmt.Fprintf(w, "replaying %s (%d events, window %v–%v)\n", log.Scenario, len(log.Events), from, windowEnd(to))
	n := 0
	for _, ev := range log.Events {
		if ev.At < from || to != 0 && ev.At > to {
			continue
		}
		n++
		fmt.Fprintf(w, "  %10s  %-20s sw=%-3d user=%-18s sev=%-3d %s %s\n",
			ev.At.Truncate(time.Millisecond), ev.Type, ev.Switch, ev.User, ev.Severity, ev.Detail, ev.FlowDesc)
	}
	fmt.Fprintf(w, "%d events replayed\n", n)
	return nil
}

func windowEnd(to time.Duration) string {
	if to == 0 {
		return "∞"
	}
	return to.String()
}
