package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: sample value by series
// key, the metric name followed by its labels sorted by key, e.g.
// `crowdrankd_infer_stage_seconds_sum{stage="truth"}`.
type scrape map[string]float64

// parseScrape reads text exposition format 0.0.4. Comment lines are
// skipped; a sample line is `name[{labels}] value [timestamp]`.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, labels, rest, err := splitSample(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value after %q", line, name)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[seriesKey(name, labels)] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// splitSample splits a sample line into its name, its label pairs and
// the text after the closing brace (or after the name).
func splitSample(text string) (name string, labels []string, rest string, err error) {
	brace := strings.IndexByte(text, '{')
	space := strings.IndexAny(text, " \t")
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", nil, "", fmt.Errorf("no value in %q", text)
		}
		return text[:space], nil, text[space:], nil
	}
	name = text[:brace]
	i := brace + 1
	for {
		for i < len(text) && (text[i] == ',' || text[i] == ' ') {
			i++
		}
		if i >= len(text) {
			return "", nil, "", fmt.Errorf("unterminated labels in %q", text)
		}
		if text[i] == '}' {
			return name, labels, text[i+1:], nil
		}
		eq := strings.Index(text[i:], `="`)
		if eq < 0 {
			return "", nil, "", fmt.Errorf("malformed label in %q", text)
		}
		key := text[i : i+eq]
		i += eq + 2
		var val strings.Builder
		for ; i < len(text) && text[i] != '"'; i++ {
			if text[i] == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(text[i])
				}
				continue
			}
			val.WriteByte(text[i])
		}
		if i >= len(text) {
			return "", nil, "", fmt.Errorf("unterminated label value in %q", text)
		}
		i++ // closing quote
		labels = append(labels, key, val.String())
	}
}

// seriesKey renders name and key/value label pairs in the canonical
// sorted form the scrape map is keyed by.
func seriesKey(name string, kv []string) string {
	if len(kv) == 0 {
		return name
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+`="`+kv[i+1]+`"`)
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// get returns one series' value, 0 when absent (a counter or histogram
// the server has not registered reads as never observed).
func (s scrape) get(name string, kv ...string) float64 { return s[seriesKey(name, kv)] }

// delta is after minus before for every series in after: the activity of
// counters and histogram sums/counts between two scrapes.
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMean is the mean observation of histogram family name (with the
// given labels) over a delta: _sum / _count, and that count. A histogram
// with no observations has mean 0.
func (s scrape) histMean(name string, kv ...string) (mean, count float64) {
	count = s.get(name+"_count", kv...)
	if count == 0 {
		return 0, 0
	}
	return s.get(name+"_sum", kv...) / count, count
}
