package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuBuckets are the layers a CPU sample is charged to ("cpu.<name>").
var cpuBuckets = []string{
	"sim", "ether", "core", "rll", "tcp", "stack", "metrics", "json",
	"gc", "wait", "facade", "other",
}

// pkgBuckets maps a package path to its bucket.
var pkgBuckets = map[string]string{
	"virtualwire/internal/sim":     "sim",
	"virtualwire/internal/ether":   "ether",
	"virtualwire/internal/core":    "core",
	"virtualwire/internal/fsl":     "core",
	"virtualwire/internal/rll":     "rll",
	"virtualwire/internal/tcp":     "tcp",
	"virtualwire/internal/stack":   "stack",
	"virtualwire/internal/packet":  "stack",
	"virtualwire/internal/metrics": "metrics",
	"encoding/json":                "json",
	"virtualwire":                  "facade",
}

// gcFrames mark a sample as garbage collection or allocation wherever
// they appear in its stack (besides every "runtime.gc*" and
// "runtime.mallocgc*" frame).
var gcFrames = map[string]bool{
	"runtime.bgsweep":      true,
	"runtime.bgscavenge":   true,
	"runtime.sweepone":     true,
	"runtime.markroot":     true,
	"runtime.scanobject":   true,
	"runtime.wbBufFlush":   true,
	"runtime.GC":           true,
	"runtime._GC":          true,
	"runtime.newobject":    true,
	"runtime.makeslice":    true,
	"runtime.makemap":      true,
	"runtime.newarray":     true,
	"runtime.mProf_Malloc": true,
}

// waitFrames mark a sample as scheduler work — parking, waking and
// spinning for runnable goroutines, futex sleeps — which is where the
// sharded engine's barrier waits land.
var waitFrames = map[string]bool{
	"runtime.schedule":      true,
	"runtime.findRunnable":  true,
	"runtime.park_m":        true,
	"runtime.gopark":        true,
	"runtime.stopm":         true,
	"runtime.startm":        true,
	"runtime.wakep":         true,
	"runtime.ready":         true,
	"runtime.goready":       true,
	"runtime.notesleep":     true,
	"runtime.notewakeup":    true,
	"runtime.futex":         true,
	"runtime.futexsleep":    true,
	"runtime.futexwakeup":   true,
	"runtime.usleep":        true,
	"runtime.osyield":       true,
	"runtime.netpoll":       true,
	"runtime.semacquire1":   true,
	"runtime.semrelease1":   true,
	"runtime.goschedImpl":   true,
	"runtime.lock2":         true,
	"runtime.unlock2":       true,
	"runtime.stealWork":     true,
	"runtime.runqgrab":      true,
	"runtime.mPark":         true,
	"runtime.resetspinning": true,
}

// classify charges one sample's stack (leaf first) to a bucket: GC and
// allocation, then scheduler waits, anywhere in the stack; otherwise the
// leaf frame's package, where runtime and standard-library helpers
// (memmove, map access, strconv, sort) pass the sample to their nearest
// caller in a bucketed package.
func classify(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.mallocgc") || gcFrames[f] {
			return "gc"
		}
	}
	for _, f := range stack {
		if waitFrames[f] {
			return "wait"
		}
	}
	for _, f := range stack {
		if strings.Contains(f, "MarshalJSON") || strings.Contains(f, "appendJSON") {
			return "json"
		}
		if b, ok := pkgBuckets[funcPackage(f)]; ok {
			return b
		}
	}
	return "other"
}

// funcPackage extracts the import path from a symbol name such as
// "virtualwire/internal/sim.(*Scheduler).Run" or
// "slices.SortFunc[go.shape.int]".
func funcPackage(f string) string {
	if i := strings.IndexByte(f, '['); i >= 0 {
		f = f[:i]
	}
	slash := strings.LastIndexByte(f, '/')
	if dot := strings.IndexByte(f[slash+1:], '.'); dot >= 0 {
		return f[:slash+1+dot]
	}
	return f
}

// cpuShares post-processes a CPU profile with the toolchain's
// `go tool pprof -traces` and returns each bucket's share of the
// sampled CPU time, and that time in seconds.
func cpuShares(ctx context.Context, profile string) (map[string]float64, float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	byBucket, total, err := parseTraces(out)
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = ratio(float64(byBucket[b]), float64(total))
	}
	return shares, total.Seconds(), nil
}

// parseTraces reads `pprof -traces` output: blocks separated by
// "-----------+---" lines, each starting with the sample value followed
// by the leaf frame, then one caller frame per line.
func parseTraces(out []byte) (map[string]time.Duration, time.Duration, error) {
	byBucket := make(map[string]time.Duration)
	var total, value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byBucket[classify(stack)] += value
			total += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && value == 0 {
			// First line of a block: "<value> <leaf frame> [(inline)]".
			v, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a label line such as "bytes:[...]"
			}
			value = v
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return byBucket, total, nil
}
