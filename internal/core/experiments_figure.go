package core

import (
	"fmt"
	"math"
	"strings"

	"cloudwatch/internal/telescope"
)

// Figure1Panel is one panel of Figure 1: the per-address unique-
// scanner series of one port across the telescope space, smoothed over
// 512-address windows, plus the summary statistics that encode the
// panel's finding.
type Figure1Panel struct {
	Port    uint16
	Windows []float64 // means of consecutive 512-address blocks

	// Structure statistics.
	Slash16StartBoost float64 // mean unique scanners on x.x.0.0 ÷ overall mean (panel a)
	Octet255Ratio     float64 // mean on 255-octet addresses ÷ mean on others (panels b, c)
	TopAddresses      []string
	TopCounts         []int
}

// Figure1Result holds all four panels.
type Figure1Result struct {
	Panels []Figure1Panel
}

// Figure1Window is the smoothing window of the figure ("a rolling
// average of the # of scanning IPs across every consecutive 512 IPs").
const Figure1Window = 512

// Figure1 regenerates Figure 1's per-address scanner-count series for
// the telescope's watched ports (telescope.WatchPorts: 22, 445, 80,
// 17128).
func (s *Study) Figure1() Figure1Result {
	var res Figure1Result
	for _, port := range telescope.WatchPorts {
		series := s.telescopeSeries(port)
		panel := Figure1Panel{Port: port}
		if series == nil {
			res.Panels = append(res.Panels, panel)
			continue
		}
		panel.Windows = telescope.BlockMeans(series, Figure1Window)

		var sum, n float64
		var sum255, n255 float64
		var sumStart, nStart float64
		type top struct {
			idx   int
			count int
		}
		var tops []top
		for i, count := range series {
			addr := s.U.TelescopeAddr(i)
			sum += float64(count)
			n++
			if addr.HasOctet(255) {
				sum255 += float64(count)
				n255++
			}
			if addr.IsSlash16Start() {
				sumStart += float64(count)
				nStart++
			}
			tops = append(tops, top{i, count})
			if len(tops) > 1 {
				for k := len(tops) - 1; k > 0 && tops[k].count > tops[k-1].count; k-- {
					tops[k], tops[k-1] = tops[k-1], tops[k]
				}
			}
			if len(tops) > 4 {
				tops = tops[:4]
			}
		}
		overall := sum / math.Max(n, 1)
		other := (sum - sum255) / math.Max(n-n255, 1)
		if nStart > 0 && overall > 0 {
			panel.Slash16StartBoost = (sumStart / nStart) / overall
		}
		if n255 > 0 && other > 0 {
			panel.Octet255Ratio = (sum255 / n255) / other
		}
		for _, tp := range tops {
			if tp.count == 0 {
				continue
			}
			panel.TopAddresses = append(panel.TopAddresses, s.U.TelescopeAddr(tp.idx).String())
			panel.TopCounts = append(panel.TopCounts, tp.count)
		}
		res.Panels = append(res.Panels, panel)
	}
	return res
}

// Render formats the four panels with ASCII sparklines.
func (r Figure1Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1: address-structure preferences in the telescope (rolling 512-IP windows)\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "\n(port %d) ", p.Port)
		switch p.Port {
		case 22:
			fmt.Fprintf(&b, "/16-start boost: %.1fx (scanners prefer x.B.0.0)\n", p.Slash16StartBoost)
		case 445, 80:
			fmt.Fprintf(&b, "255-octet density ratio: %.2f (scanners avoid 255 octets)\n", p.Octet255Ratio)
		case 17128:
			fmt.Fprintf(&b, "single-target latch — top addresses:\n")
			for i := range p.TopAddresses {
				fmt.Fprintf(&b, "  %s: %d unique scanners\n", p.TopAddresses[i], p.TopCounts[i])
			}
		}
		b.WriteString(sparkline(p.Windows))
		b.WriteByte('\n')
	}
	return b.String()
}

// sparkline renders a window series as a compact ASCII plot.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return "(no data)"
	}
	const levels = " .:-=+*#%@"
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return "(all zero)"
	}
	// Downsample to at most 120 columns.
	cols := len(values)
	if cols > 120 {
		cols = 120
	}
	var b strings.Builder
	for c := 0; c < cols; c++ {
		lo := c * len(values) / cols
		hi := (c + 1) * len(values) / cols
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += values[i]
		}
		v := sum / float64(hi-lo)
		idx := int(v / maxV * float64(len(levels)-1))
		b.WriteByte(levels[idx])
	}
	return b.String()
}
