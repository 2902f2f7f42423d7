package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// modulePrefix is the import-path prefix of the layers a sample can be
// attributed to.
const modulePrefix = "github.com/coconut-bench/coconut/internal/"

// layerOfFrame returns the layer a function belongs to: the first path
// element under internal/, which folds consensus/* and systems/* into their
// parents. Functions outside the module, and internal packages that are not
// ledger layers (trace, vet), return "".
func layerOfFrame(fn string) string {
	i := strings.Index(fn, modulePrefix)
	if i < 0 {
		return ""
	}
	rest := fn[i+len(modulePrefix):]
	if j := strings.IndexAny(rest, "/."); j >= 0 {
		rest = rest[:j]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// layerOfStack attributes one sample, given leaf first, to the innermost
// frame inside a ledger layer; a stack with none goes to runtime_other.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if l := layerOfFrame(fn); l != "" {
			return l
		}
	}
	return "runtime_other"
}

// foldTraces parses the text `go tool pprof -traces -unit=<u>` prints — a
// header, then samples separated by dashed rules, each a value line naming
// the leaf frame followed by its callers outward — and sums the sample
// values per layer.
func foldTraces(r io.Reader) (map[string]float64, error) {
	weights := make(map[string]float64)
	var value float64
	var frames []string
	inSample := false
	flush := func() {
		if inSample && len(frames) > 0 {
			weights[layerOfStack(frames)] += value
		}
		value, frames, inSample = 0, frames[:0], false
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started {
			continue // header
		}
		text := strings.TrimSpace(line)
		if text == "" {
			continue
		}
		if inSample {
			frames = append(frames, strings.TrimSuffix(text, " (inline)"))
			continue
		}
		head, rest, _ := strings.Cut(text, " ")
		if strings.HasSuffix(head, ":") {
			continue // a sample label such as "bytes:  104kB"
		}
		v, err := parseValue(head)
		if err != nil {
			return nil, fmt.Errorf("pprof traces: bad sample line %q: %w", line, err)
		}
		value, inSample = v, true
		if leaf := strings.TrimSpace(rest); leaf != "" {
			frames = append(frames, strings.TrimSuffix(leaf, " (inline)"))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	return weights, nil
}

// parseValue reads a sample value printed with a forced unit, such as
// "20000000ns", "17380122B" or a bare "0".
func parseValue(s string) (float64, error) {
	end := len(s)
	for end > 0 && (s[end-1] < '0' || s[end-1] > '9') {
		end--
	}
	return strconv.ParseFloat(s[:end], 64)
}

// shares turns per-layer weights into percentages over every ledger layer;
// they sum to 100 unless the profile is empty.
func shares(weights map[string]float64) map[string]float64 {
	var total float64
	for _, l := range layers {
		total += weights[l]
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * weights[l] / total
		}
	}
	return out
}

// foldProfile shells out to `go tool pprof -traces` and folds the profile
// by layer. base, when set, is subtracted first, so a cumulative heap
// profile covers only the interval between the two snapshots.
func foldProfile(profile, base, sampleIndex, unit string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-traces", "-unit=" + unit}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	if base != "" {
		args = append(args, "-base="+base)
	}
	args = append(args, profile)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w: %s", strings.Join(args, " "), err, stderr.String())
	}
	weights, err := foldTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	return shares(weights), nil
}
