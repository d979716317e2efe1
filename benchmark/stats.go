package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of vs and returns its middle value (mean of the two
// middle values for even counts).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// midmean is the interquartile mean: the mean of what is left after dropping
// the lowest and the highest quarter of vs (rounded down). Up to three values
// it is their mean.
func midmean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	drop := len(s) / 4
	return mean(s[drop : len(s)-drop])
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", lowest first.
var tailPercentiles = []struct {
	Label string
	Q     float64
}{{"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}}

// highestPercentile reports the highest tail percentile that still has at
// least ten of the n samples beyond it. ok is false below 100 samples, where
// not even p90 qualifies.
func highestPercentile(n int) (label string, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p.Q) >= 10-1e-9 {
			label, ok = p.Label, true
		}
	}
	return label, ok
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is what the
// driver computes spreads with. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance of vs as a share of their
// median; ok is false when it cannot be computed.
func spreadShare(vs []float64) (share float64, ok bool) {
	if len(vs) < 2 {
		return 0, false
	}
	m := median(vs)
	if m == 0 {
		return 0, false
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m), true
}

// promSamples holds one scrape of a Prometheus text exposition, keyed by the
// series exactly as rendered: name{label="v",...}.
type promSamples map[string]float64

// parseProm reads the text exposition format: comment lines are skipped,
// every other line is `series value`. Label values may contain spaces and
// escaped quotes, so the value is whatever follows the closing brace.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ')
			if cut < 0 {
				return nil, fmt.Errorf("metrics: malformed line %q", line)
			}
			cut--
		}
		series, rest := line[:cut+1], strings.Fields(line[cut+1:])
		if len(rest) == 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in line %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// series renders a series key from a metric name and label pairs, in the
// order the program registers them.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(labels[i+1])
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// promDelta is the change of every counter between two scrapes of a process.
type promDelta struct{ before, after promSamples }

// counter returns how much a series grew between the two scrapes.
func (d promDelta) counter(name string, labels ...string) float64 {
	k := series(name, labels...)
	return d.after[k] - d.before[k]
}

// histMean returns the mean observation of a histogram over the interval, in
// seconds, and the number of observations.
func (d promDelta) histMean(name string, labels ...string) (meanSeconds, count float64) {
	count = d.counter(name+"_count", labels...)
	if count <= 0 {
		return 0, 0
	}
	return d.counter(name+"_sum", labels...) / count, count
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
