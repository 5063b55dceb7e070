// Package report renders the reproduction's tables and figure data series
// as aligned text, one renderer per table/figure of the paper. The output is
// what cmd/paperfigs prints and what EXPERIMENTS.md records.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"tangledmass/internal/analysis"
	"tangledmass/internal/mitm"
)

// rowPrinter writes rows into a tab writer backed by an in-memory builder.
// Such writes cannot fail, so the methods absorb the impossible error once,
// here, instead of at every renderer call site; a failure would mean the
// in-memory sink itself broke, which is worth crashing over.
type rowPrinter struct {
	w *tabwriter.Writer
}

func (p rowPrinter) printf(format string, args ...any) {
	if _, err := fmt.Fprintf(p.w, format, args...); err != nil {
		panic("report: writing table row: " + err.Error())
	}
}

func (p rowPrinter) println(line string) {
	p.printf("%s\n", line)
}

func table(fill func(p rowPrinter)) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fill(rowPrinter{w})
	if err := w.Flush(); err != nil {
		panic("report: flushing table: " + err.Error())
	}
	return b.String()
}

// Table1 renders the store-size table.
func Table1(rows []analysis.StoreSize) string {
	return table(func(p rowPrinter) {
		p.println("Root store\tNo. certificates")
		for _, r := range rows {
			p.printf("%s\t%d\n", r.Name, r.Certs)
		}
	})
}

// Table2 renders the top devices and manufacturers.
func Table2(devices, manufacturers []analysis.CountRow) string {
	return table(func(p rowPrinter) {
		p.println("Device model\tNo. sessions\tManufacturer\tNo. sessions")
		n := len(devices)
		if len(manufacturers) > n {
			n = len(manufacturers)
		}
		for i := 0; i < n; i++ {
			var d, m string
			if i < len(devices) {
				d = fmt.Sprintf("%s\t%d", devices[i].Name, devices[i].Sessions)
			} else {
				d = "\t"
			}
			if i < len(manufacturers) {
				m = fmt.Sprintf("%s\t%d", manufacturers[i].Name, manufacturers[i].Sessions)
			} else {
				m = "\t"
			}
			p.printf("%s\t%s\n", d, m)
		}
	})
}

// Table3 renders per-store validation totals.
func Table3(rows []analysis.CategoryValidation) string {
	return table(func(p rowPrinter) {
		p.println("Root store\tNo. validated certificates")
		for _, r := range rows {
			p.printf("%s\t%d\n", r.Name, r.Validated)
		}
	})
}

// Table4 renders per-category root counts and zero-validation shares.
func Table4(rows []analysis.CategoryValidation) string {
	return table(func(p rowPrinter) {
		p.println("Root store category\tTotal root certs\tRoot certs that do not validate Notary certs")
		for _, r := range rows {
			p.printf("%s\t%d\t%.0f%%\n", r.Name, r.TotalRoots, r.ZeroFraction*100)
		}
	})
}

// Table5 renders the rooted-device exclusives.
func Table5(rows []analysis.RootedExclusive) string {
	return table(func(p rowPrinter) {
		p.println("Certificate authority\tTotal devices")
		for _, r := range rows {
			p.printf("%s\t%d\n", r.Name, r.Devices)
		}
	})
}

// Table6 renders the interception split.
func Table6(intercepted, clean []mitm.Finding) string {
	return table(func(p rowPrinter) {
		p.println("Intercepted domains\tWhitelisted domains")
		n := len(intercepted)
		if len(clean) > n {
			n = len(clean)
		}
		for i := 0; i < n; i++ {
			var a, b string
			if i < len(intercepted) {
				a = fmt.Sprintf("%s:%d", intercepted[i].Host, intercepted[i].Port)
			}
			if i < len(clean) {
				b = fmt.Sprintf("%s:%d", clean[i].Host, clean[i].Port)
			}
			p.printf("%s\t%s\n", a, b)
		}
	})
}

// Figure1 renders the extended-store scatter as grouped rows.
func Figure1(points []analysis.ScatterPoint) string {
	return table(func(p rowPrinter) {
		p.println("Manufacturer\tVersion\tAOSP certs\tExtra certs\tSessions")
		for _, pt := range points {
			p.printf("%s\t%s\t%d\t%d\t%d\n",
				pt.Manufacturer, pt.Version, pt.AOSPCerts, pt.ExtraCerts, pt.Sessions)
		}
	})
}

// Figure2 renders the attribution matrix, largest ratios first within each
// group, capped at maxPerGroup rows per group (0 = unlimited).
func Figure2(cells []analysis.AttributionCell, maxPerGroup int) string {
	byGroup := map[string][]analysis.AttributionCell{}
	var groups []string
	for _, c := range cells {
		if _, ok := byGroup[c.Group]; !ok {
			groups = append(groups, c.Group)
		}
		byGroup[c.Group] = append(byGroup[c.Group], c)
	}
	sort.Strings(groups)
	return table(func(p rowPrinter) {
		p.println("Group\tCertificate\tHash\tRatio\tPresence")
		for _, g := range groups {
			cs := byGroup[g]
			sort.Slice(cs, func(i, j int) bool {
				if cs[i].Ratio != cs[j].Ratio {
					return cs[i].Ratio > cs[j].Ratio
				}
				return cs[i].CertName < cs[j].CertName
			})
			if maxPerGroup > 0 && len(cs) > maxPerGroup {
				cs = cs[:maxPerGroup]
			}
			for _, c := range cs {
				p.printf("%s\t%s\t(%s)\t%.2f\t%s\n", g, c.CertName, c.CertHash, c.Ratio, c.Class)
			}
		}
	})
}

// ClassShares renders Figure 2's presence-class shares as percentages, one
// line per class in legend order (absent classes read 0.0%), so the text is
// the same on every run.
func ClassShares(shares map[analysis.Fig2Class]float64) string {
	var b strings.Builder
	for _, cl := range analysis.Fig2Legend {
		b.WriteString(fmt.Sprintf("  %-30s %.1f%%\n", cl, shares[cl]*100))
	}
	return b.String()
}

// Figure3 renders each category's ECDF as value:cumfrac pairs sampled at up
// to maxPoints distinct values, preceded by the zero-validation offset.
func Figure3(rows []analysis.CategoryValidation, maxPoints int) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%s (roots=%d, zero-offset=%.2f)\n", r.Name, r.TotalRoots, r.ZeroFraction))
		series := r.ECDF.Series()
		step := 1
		if maxPoints > 0 && len(series) > maxPoints {
			step = (len(series) + maxPoints - 1) / maxPoints
		}
		for i := 0; i < len(series); i += step {
			b.WriteString(fmt.Sprintf("  x=%.0f y=%.3f\n", series[i].X, series[i].Y))
		}
		if len(series) > 0 && (len(series)-1)%step != 0 {
			last := series[len(series)-1]
			b.WriteString(fmt.Sprintf("  x=%.0f y=%.3f\n", last.X, last.Y))
		}
	}
	return b.String()
}

// TrustAttributionTable renders the interception-attribution matrix: the
// per-cause totals first, then the (cause, channel, API level) detail rows.
func TrustAttributionTable(ta analysis.TrustAttribution) string {
	return table(func(p rowPrinter) {
		p.printf("Sessions\t%d\n", ta.TotalSessions)
		p.printf("Interceptable sessions\t%d\n", ta.Exposed)
		for _, c := range ta.ByCause {
			p.printf("Cause %s\t%d\n", c.Cause, c.Sessions)
		}
		p.println("Cause\tChannel\tAPI level\tSessions")
		for _, r := range ta.Rows {
			p.printf("%s\t%s\t%d\t%d\n", r.Cause, r.Channel, r.APILevel, r.Sessions)
		}
	})
}

// Headlines renders the §5/§6 prose numbers.
func Headlines(h analysis.Headlines) string {
	return table(func(p rowPrinter) {
		p.printf("Sessions\t%d\n", h.TotalSessions)
		p.printf("Handsets\t%d\n", h.Handsets)
		p.printf("Device models\t%d\n", h.Models)
		p.printf("Unique root certificates\t%d\n", h.UniqueRoots)
		p.printf("Sessions with extended stores\t%.1f%%\n", h.ExtendedFraction*100)
		p.printf("Handsets missing AOSP certs\t%d\n", h.MissingHandsets)
		p.printf("4.1/4.2 sessions adding >40 certs\t%.1f%%\n", h.Over40Fraction41_42*100)
		p.printf("Sessions on rooted handsets\t%.1f%%\n", h.RootedFraction*100)
		p.printf("Rooted sessions with rooted-only certs\t%.1f%%\n", h.RootedExclusiveOfRoots*100)
		p.printf("TLS-intercepted sessions\t%d\n", h.InterceptedSessions)
	})
}
