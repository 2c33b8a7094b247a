// Command vwcampaign executes a scenario matrix — a campaign — across a
// bounded worker pool, streaming one JSON record per run to a JSONL
// file and printing an aggregate summary. Equal specs and seeds give
// byte-identical output at any -workers value.
//
// The matrix comes either from a JSON spec file (-spec, see
// docs/CAMPAIGNS.md for the schema) or from quick flags that cross a
// script with a seed axis and an optional bit-error-rate axis:
//
//	# 1000 runs: 250 seeds x 4 bit error rates, 8 workers:
//	vwcampaign -script scripts/quickstart_drop.fsl \
//	    -tcp node1:0x6000-node2:0x4000:65536 \
//	    -seeds 250 -ber 0,1e-7,1e-6,1e-5 -workers 8 \
//	    -out runs.jsonl -summary text
//
//	# Same matrix from a spec file, JSON summary:
//	vwcampaign -spec campaign.json -out runs.jsonl -summary json
//
// With -addr the same campaign is submitted to a vwcampaignd daemon
// instead of running in-process; records stream back over HTTP into
// -out with the same bytes an in-process run would write (see
// docs/SERVICE.md):
//
//	vwcampaign -addr 127.0.0.1:8047 -spec campaign.json -out runs.jsonl
//	vwcampaign -addr 127.0.0.1:8047 -spec campaign.json -detach   # prints the job id
//	vwcampaign -addr 127.0.0.1:8047 -status j000001
//	vwcampaign -addr 127.0.0.1:8047 -attach j000001 -out runs.jsonl
//	vwcampaign -addr 127.0.0.1:8047 -cancel j000001
//
// The exit status is 0 when every run completed and passed, 1 on a
// campaign-level failure, and 2 when runs failed or were cut short.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"virtualwire"
	"virtualwire/campaign"
	"virtualwire/campaign/service"
	"virtualwire/internal/profiling"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vwcampaign:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (code int, retErr error) {
	specPath := flag.String("spec", "", "JSON campaign spec file (alternative to the quick flags)")
	scriptPath := flag.String("script", "", "FSL scenario file for a quick-flag campaign")
	scenario := flag.String("scenario", "", "scenario name from a multi-scenario script")
	nodesPath := flag.String("nodes", "", "FSL file supplying the NODE_TABLE (default: the script)")
	seed := flag.Int64("seed", 1, "campaign master seed")
	seeds := flag.Int("seeds", 1, "seed axis size (per-run seeds derive from -seed and the run index)")
	bers := flag.String("ber", "", "comma-separated bit error rates forming the config axis")
	rll := flag.Bool("rll", false, "insert the Reliable Link Layer in every run")
	medium := flag.String("medium", "", "testbed medium: switch, bus or fdswitch")
	tcpSpec := flag.String("tcp", "", "TCP bulk workload: from:port-to:port:bytes")
	echoSpec := flag.String("echo", "", "UDP echo workload: client-server:port:count")
	hosts := flag.Int("hosts", 0, "scriptless runs over this many generated hosts (alternative to -script)")
	topology := flag.String("topology", "", "multi-switch fabric: kind[:switches], kind = star, ring, fattree or random")
	classifier := flag.String("classifier", "", "classifier strategy: linear, compiled or auto")
	incastSpec := flag.String("incast", "", "incast workload: senders:bytes (N-to-1 onto the first host)")
	manyflowSpec := flag.String("manyflow", "", "many-flow workload: flows:bytes (random pairs across all hosts)")
	horizon := flag.Duration("horizon", 60*time.Second, "virtual-time horizon per run")
	timeout := flag.Duration("timeout", 0, "wall-clock timeout per run (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts for transiently failing runs")
	workers := flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS; never affects output bytes)")
	outPath := flag.String("out", "", "write one JSON record per run to this JSONL file")
	summaryMode := flag.String("summary", "text", "summary format: text, json or none")
	summaryOut := flag.String("summary-out", "", "write the summary here instead of stdout")
	progress := flag.Bool("progress", false, "print per-run progress lines to stderr")
	shardsFlag := flag.String("shards", "", "sharded engine for quick-flag campaigns: a shard count or auto (empty = legacy)")
	trunkFail := flag.String("trunk-fail", "", "comma-separated trunk failures idx@at (e.g. 0@500ms; requires -topology)")
	trunkFlap := flag.String("trunk-flap", "", "comma-separated trunk flaps idx@at:period:count (e.g. 0@500ms:200ms:3; requires -topology)")
	addr := flag.String("addr", "", "vwcampaignd address (host:port or URL): submit to the daemon instead of running in-process")
	tenant := flag.String("tenant", "", "tenant name for daemon submissions (requires -addr)")
	detach := flag.Bool("detach", false, "submit to the daemon and print the job id without waiting (requires -addr)")
	attachID := flag.String("attach", "", "attach to an existing daemon job: stream its records and summary (requires -addr)")
	statusID := flag.String("status", "", "print a daemon job's status as JSON and exit (requires -addr)")
	cancelID := flag.String("cancel", "", "cancel a daemon job and exit (requires -addr)")
	var prof profiling.Flags
	prof.Register()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return 1, err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			code, retErr = 1, err
		}
	}()

	// SIGINT/SIGTERM cancel the campaign (or the remote stream);
	// finished records stay flushed.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	if *addr == "" && (*tenant != "" || *detach || *attachID != "" || *statusID != "" || *cancelID != "") {
		return 1, fmt.Errorf("-tenant, -detach, -attach, -status and -cancel require -addr")
	}
	if *addr != "" {
		// Job-management modes need no spec at all.
		c := service.NewClient(*addr)
		switch {
		case *cancelID != "":
			st, err := c.Cancel(ctx, *cancelID)
			if err != nil {
				return 1, err
			}
			return 0, printJobStatus(st)
		case *statusID != "":
			st, err := c.Status(ctx, *statusID)
			if err != nil {
				return 1, err
			}
			return 0, printJobStatus(st)
		case *attachID != "":
			return attachJob(ctx, c, *attachID, *outPath, *progress, *summaryMode, *summaryOut)
		}
	}

	var spec campaign.Spec
	switch {
	case *specPath != "":
		if *scriptPath != "" || *hosts > 0 {
			return 1, fmt.Errorf("-spec is exclusive with -script and -hosts")
		}
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			return 1, err
		}
		parsed, err := campaign.ParseSpec(raw)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", *specPath, err)
		}
		spec = *parsed
	case *scriptPath != "" || *hosts > 0:
		spec = campaign.Spec{
			Name:      strings.TrimSuffix(*scriptPath, ".fsl"),
			Seed:      *seed,
			SeedCount: *seeds,
			Scenario:  *scenario,
			Horizon:   campaign.Duration(*horizon),
			Timeout:   campaign.Duration(*timeout),
			Retries:   *retries,
			Hosts:     *hosts,
		}
		if *scriptPath != "" {
			src, err := os.ReadFile(*scriptPath)
			if err != nil {
				return 1, err
			}
			spec.Script = string(src)
		} else {
			spec.Name = fmt.Sprintf("hosts%d", *hosts)
		}
		if *nodesPath != "" {
			nsrc, err := os.ReadFile(*nodesPath)
			if err != nil {
				return 1, err
			}
			spec.Nodes = string(nsrc)
		}
		if *bers != "" {
			for _, f := range strings.Split(*bers, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return 1, fmt.Errorf("-ber: %w", err)
				}
				ber := v
				spec.Configs = append(spec.Configs, campaign.ConfigOverride{
					Label:        "ber=" + f,
					Medium:       *medium,
					BitErrorRate: &ber,
				})
			}
		} else if *medium != "" || *rll {
			spec.Configs = []campaign.ConfigOverride{{Medium: *medium}}
		}
		if *rll {
			on := true
			for i := range spec.Configs {
				spec.Configs[i].RLL = &on
			}
		}
		if *topology != "" || *classifier != "" {
			if len(spec.Configs) == 0 {
				spec.Configs = []campaign.ConfigOverride{{Medium: *medium}}
			}
			var topo *campaign.TopologyOverride
			if *topology != "" {
				var err error
				if topo, err = parseTopology(*topology); err != nil {
					return 1, fmt.Errorf("-topology: %w", err)
				}
			}
			for i := range spec.Configs {
				spec.Configs[i].Classifier = *classifier
				spec.Configs[i].Topology = topo
			}
		}
		if *tcpSpec != "" {
			wl, err := parseTCPSpec(*tcpSpec)
			if err != nil {
				return 1, fmt.Errorf("-tcp: %w", err)
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
		if *echoSpec != "" {
			wl, err := parseEchoSpec(*echoSpec)
			if err != nil {
				return 1, fmt.Errorf("-echo: %w", err)
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
		if *incastSpec != "" {
			wl, err := parseCountBytes("incast", *incastSpec)
			if err != nil {
				return 1, fmt.Errorf("-incast: %w", err)
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
		if *manyflowSpec != "" {
			wl, err := parseCountBytes("manyflow", *manyflowSpec)
			if err != nil {
				return 1, fmt.Errorf("-manyflow: %w", err)
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
		if *trunkFail != "" || *trunkFlap != "" {
			if *topology == "" {
				return 1, fmt.Errorf("-trunk-fail/-trunk-flap require -topology")
			}
			faults, err := parseTrunkFaults(*trunkFail, *trunkFlap)
			if err != nil {
				return 1, err
			}
			for i := range spec.Configs {
				spec.Configs[i].TrunkFaults = faults
			}
		}
		if *shardsFlag != "" {
			k, err := parseShards(*shardsFlag)
			if err != nil {
				return 1, fmt.Errorf("-shards: %w", err)
			}
			if len(spec.Configs) == 0 {
				spec.Configs = []campaign.ConfigOverride{{Medium: *medium}}
			}
			for i := range spec.Configs {
				sh := k
				spec.Configs[i].Shards = &sh
			}
		}
	default:
		flag.Usage()
		return 1, fmt.Errorf("one of -spec, -script or -hosts is required")
	}

	// One normalization path for every consumer: quick flags, -spec and
	// the daemon all run the same canonical spec (campaign.Normalize),
	// so the journal's spec hash is stable however the spec arrived.
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return 1, err
	}

	if *addr != "" {
		raw, err := json.Marshal(&spec)
		if err != nil {
			return 1, err
		}
		c := service.NewClient(*addr)
		st, err := c.Submit(ctx, *tenant, raw, *workers)
		if err != nil {
			return 1, err
		}
		if *detach {
			fmt.Println(st.ID)
			return 0, nil
		}
		fmt.Fprintf(os.Stderr, "vwcampaign: submitted %s (%d runs) to %s\n", st.ID, st.Runs, *addr)
		return attachJob(ctx, c, st.ID, *outPath, *progress, *summaryMode, *summaryOut)
	}

	opts := campaign.Options{Workers: *workers}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		opts.Sink = f
	}
	total := spec.Runs()
	if *progress {
		opts.OnRecord = func(r campaign.RunRecord) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %-30s %s (seed %d, %d attempt(s))\n",
				r.Index+1, total, r.Label, r.Outcome, r.Seed, r.Attempts)
		}
	}

	sum, runErr := campaign.Run(ctx, spec, opts)
	if sum == nil {
		return 1, runErr
	}

	out := os.Stdout
	if *summaryOut != "" {
		f, err := os.Create(*summaryOut)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		out = f
	}
	switch *summaryMode {
	case "text":
		fmt.Fprint(out, sum.Text())
	case "json":
		if err := sum.WriteJSON(out); err != nil {
			return 1, err
		}
	case "none":
	default:
		return 1, fmt.Errorf("unknown -summary %q (want text, json or none)", *summaryMode)
	}

	if runErr != nil {
		return 2, fmt.Errorf("campaign interrupted: %w", runErr)
	}
	if sum.Passed != sum.Runs {
		return 2, nil
	}
	return 0, nil
}

// printJobStatus writes one job status as indented JSON to stdout.
func printJobStatus(st service.JobStatus) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// attachJob follows a daemon job to completion: records stream into
// -out (byte-identical to an in-process run), progress goes to stderr,
// and the final summary prints per -summary. Exit codes mirror the
// in-process path.
func attachJob(ctx context.Context, c *service.Client, id, outPath string, progress bool, summaryMode, summaryOut string) (int, error) {
	st, err := c.Status(ctx, id)
	if err != nil {
		return 1, err
	}
	var sink *os.File
	if outPath != "" {
		if sink, err = os.Create(outPath); err != nil {
			return 1, err
		}
		defer sink.Close()
	}
	var onRecord func(campaign.RunRecord)
	if progress {
		onRecord = func(r campaign.RunRecord) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %-30s %s (seed %d, %d attempt(s))\n",
				r.Index+1, st.Runs, r.Label, r.Outcome, r.Seed, r.Attempts)
		}
	}
	var sinkW io.Writer
	if sink != nil {
		sinkW = sink
	}
	if err := c.StreamRecords(ctx, id, sinkW, onRecord); err != nil {
		return 1, err
	}
	sum, err := c.Summary(ctx, id, true)
	if err != nil {
		return 1, err
	}
	final, err := c.Status(ctx, id)
	if err != nil {
		return 1, err
	}

	out := os.Stdout
	if summaryOut != "" {
		f, err := os.Create(summaryOut)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		out = f
	}
	if sum != nil {
		switch summaryMode {
		case "text":
			fmt.Fprint(out, sum.Text())
		case "json":
			if err := sum.WriteJSON(out); err != nil {
				return 1, err
			}
		case "none":
		default:
			return 1, fmt.Errorf("unknown -summary %q (want text, json or none)", summaryMode)
		}
	}

	switch final.State {
	case service.StateDone:
		if final.Failed > 0 {
			return 2, nil
		}
		return 0, nil
	case service.StateFailed:
		return 1, fmt.Errorf("job %s failed: %s", id, final.Error)
	default:
		return 2, fmt.Errorf("campaign interrupted: job %s ended %s after %d/%d runs", id, final.State, final.Completed, final.Runs)
	}
}

// parseTCPSpec parses from:port-to:port:bytes (ports accept 0x...).
func parseTCPSpec(s string) (campaign.WorkloadSpec, error) {
	var wl campaign.WorkloadSpec
	halves := strings.SplitN(s, "-", 2)
	if len(halves) != 2 {
		return wl, fmt.Errorf("want from:port-to:port:bytes")
	}
	fp := strings.Split(halves[0], ":")
	tp := strings.Split(halves[1], ":")
	if len(fp) != 2 || len(tp) != 3 {
		return wl, fmt.Errorf("want from:port-to:port:bytes")
	}
	sport, err := strconv.ParseUint(fp[1], 0, 16)
	if err != nil {
		return wl, err
	}
	dport, err := strconv.ParseUint(tp[1], 0, 16)
	if err != nil {
		return wl, err
	}
	bytes, err := strconv.Atoi(tp[2])
	if err != nil {
		return wl, err
	}
	wl.Kind = "tcpbulk"
	wl.From, wl.To = fp[0], tp[0]
	wl.SrcPort, wl.DstPort = uint16(sport), uint16(dport)
	wl.Bytes = bytes
	return wl, nil
}

// parseShards parses -shards: "auto" or a non-negative shard count.
func parseShards(s string) (int, error) {
	if s == "auto" {
		return virtualwire.ShardsAuto, nil
	}
	k, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if k < 0 {
		return 0, fmt.Errorf("want auto or a non-negative count, got %d", k)
	}
	return k, nil
}

// parseTopology parses kind[:switches].
func parseTopology(s string) (*campaign.TopologyOverride, error) {
	parts := strings.SplitN(s, ":", 2)
	topo := &campaign.TopologyOverride{Kind: parts[0]}
	if len(parts) == 2 {
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		if topo.Kind == "fattree" {
			topo.FatTreeK = n
		} else {
			topo.Switches = n
		}
	}
	return topo, nil
}

// parseTrunkFaults parses the -trunk-fail (idx@at) and -trunk-flap
// (idx@at:period:count) lists into one fault schedule.
func parseTrunkFaults(fail, flap string) ([]campaign.TrunkFault, error) {
	var out []campaign.TrunkFault
	split := func(item string) (int, []string, error) {
		halves := strings.SplitN(item, "@", 2)
		if len(halves) != 2 {
			return 0, nil, fmt.Errorf("want idx@at[:...], got %q", item)
		}
		idx, err := strconv.Atoi(halves[0])
		if err != nil {
			return 0, nil, fmt.Errorf("%q: %w", item, err)
		}
		return idx, strings.Split(halves[1], ":"), nil
	}
	if fail != "" {
		for _, item := range strings.Split(fail, ",") {
			idx, parts, err := split(strings.TrimSpace(item))
			if err != nil {
				return nil, fmt.Errorf("-trunk-fail: %w", err)
			}
			if len(parts) != 1 {
				return nil, fmt.Errorf("-trunk-fail: want idx@at, got %q", item)
			}
			at, err := time.ParseDuration(parts[0])
			if err != nil {
				return nil, fmt.Errorf("-trunk-fail: %q: %w", item, err)
			}
			out = append(out, campaign.TrunkFault{Kind: "trunk_down", Trunk: idx, At: campaign.Duration(at)})
		}
	}
	if flap != "" {
		for _, item := range strings.Split(flap, ",") {
			idx, parts, err := split(strings.TrimSpace(item))
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %w", err)
			}
			if len(parts) != 3 {
				return nil, fmt.Errorf("-trunk-flap: want idx@at:period:count, got %q", item)
			}
			at, err := time.ParseDuration(parts[0])
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %q: %w", item, err)
			}
			period, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %q: %w", item, err)
			}
			count, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %q: %w", item, err)
			}
			out = append(out, campaign.TrunkFault{
				Kind: "trunk_flap", Trunk: idx,
				At: campaign.Duration(at), Period: campaign.Duration(period), Count: count,
			})
		}
	}
	return out, nil
}

// parseCountBytes parses count:bytes into an incast/manyflow workload.
func parseCountBytes(kind, s string) (campaign.WorkloadSpec, error) {
	var wl campaign.WorkloadSpec
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return wl, fmt.Errorf("want count:bytes")
	}
	count, err := strconv.Atoi(parts[0])
	if err != nil {
		return wl, err
	}
	bytes, err := strconv.Atoi(parts[1])
	if err != nil {
		return wl, err
	}
	wl.Kind = kind
	wl.Bytes = bytes
	if kind == "manyflow" {
		wl.Flows = count
	} else {
		wl.Count = count
	}
	return wl, nil
}

// parseEchoSpec parses client-server:port:count.
func parseEchoSpec(s string) (campaign.WorkloadSpec, error) {
	var wl campaign.WorkloadSpec
	halves := strings.SplitN(s, "-", 2)
	if len(halves) != 2 {
		return wl, fmt.Errorf("want client-server:port:count")
	}
	sp := strings.Split(halves[1], ":")
	if len(sp) != 3 {
		return wl, fmt.Errorf("want client-server:port:count")
	}
	port, err := strconv.ParseUint(sp[1], 0, 16)
	if err != nil {
		return wl, err
	}
	count, err := strconv.Atoi(sp[2])
	if err != nil {
		return wl, err
	}
	wl.Kind = "udpecho"
	wl.From, wl.To = halves[0], sp[0]
	wl.DstPort = uint16(port)
	wl.Count = count
	return wl, nil
}
