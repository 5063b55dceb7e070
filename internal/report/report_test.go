package report

import (
	"strings"
	"testing"

	"tangledmass/internal/analysis"
	"tangledmass/internal/mitm"
	"tangledmass/internal/stats"
)

func TestTable1Rendering(t *testing.T) {
	out := Table1([]analysis.StoreSize{{Name: "AOSP 4.4", Certs: 150}, {Name: "Mozilla", Certs: 153}})
	for _, want := range []string{"Root store", "AOSP 4.4", "150", "Mozilla", "153"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2(
		[]analysis.CountRow{{Name: "Galaxy SIV", Sessions: 2762}},
		[]analysis.CountRow{{Name: "SAMSUNG", Sessions: 7709}, {Name: "LG", Sessions: 2908}},
	)
	for _, want := range []string{"Galaxy SIV", "2762", "SAMSUNG", "LG"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 { // header + 2 rows
		t.Errorf("Table2 rendered %d lines, want 3:\n%s", lines, out)
	}
}

func TestTable3Rendering(t *testing.T) {
	out := Table3([]analysis.CategoryValidation{
		{Name: "Mozilla", Validated: 1200},
		{Name: "AOSP 4.4", Validated: 1185},
	})
	for _, want := range []string{"No. validated certificates", "Mozilla", "1200", "AOSP 4.4", "1185"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Rendering(t *testing.T) {
	out := Table4([]analysis.CategoryValidation{
		{Name: "AOSP 4.4 certs", TotalRoots: 150, ZeroFraction: 0.23},
	})
	if !strings.Contains(out, "23%") {
		t.Errorf("Table4 missing percentage:\n%s", out)
	}
}

func TestTable5Rendering(t *testing.T) {
	out := Table5([]analysis.RootedExclusive{{Name: "CRAZY HOUSE", Devices: 70}})
	if !strings.Contains(out, "CRAZY HOUSE") || !strings.Contains(out, "70") {
		t.Errorf("Table5 output:\n%s", out)
	}
}

func TestTable6Rendering(t *testing.T) {
	out := Table6(
		[]mitm.Finding{{Host: "gmail.com", Port: 443}},
		[]mitm.Finding{{Host: "www.google.com", Port: 443}, {Host: "supl.google.com", Port: 7275}},
	)
	for _, want := range []string{"gmail.com:443", "www.google.com:443", "supl.google.com:7275"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table6 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1Rendering(t *testing.T) {
	out := Figure1([]analysis.ScatterPoint{
		{Manufacturer: "SAMSUNG", Version: "4.1", AOSPCerts: 139, ExtraCerts: 6, Sessions: 42},
	})
	for _, want := range []string{"SAMSUNG", "4.1", "139", "6", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure1 missing %q", want)
		}
	}
}

func TestFigure2RenderingCapsRows(t *testing.T) {
	cells := []analysis.AttributionCell{
		{Group: "HTC 4.1", CertName: "A", CertHash: "00000001", Ratio: 0.9, Class: analysis.ClassOnlyAndroid},
		{Group: "HTC 4.1", CertName: "B", CertHash: "00000002", Ratio: 0.5, Class: analysis.ClassIOS7Only},
		{Group: "HTC 4.1", CertName: "C", CertHash: "00000003", Ratio: 0.1, Class: analysis.ClassNotRecorded},
	}
	out := Figure2(cells, 2)
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("Figure2 should keep the top ratios:\n%s", out)
	}
	if strings.Contains(out, "00000003") {
		t.Errorf("Figure2 should cap rows per group:\n%s", out)
	}
}

func TestClassSharesLegendOrder(t *testing.T) {
	shares := map[analysis.Fig2Class]float64{
		analysis.ClassNotRecorded:    0.45,
		analysis.ClassOnlyAndroid:    0.261,
		analysis.ClassIOS7Only:       0.144,
		analysis.ClassMozillaAndIOS7: 0.063,
	}
	want := "  Mozilla, and iOS7              6.3%\n" +
		"  iOS7                           14.4%\n" +
		"  Mozilla                        0.0%\n" +
		"  Only Android                   26.1%\n" +
		"  Not recorded by ICSI Notary    45.0%\n"
	// Map iteration order varies between ranges, so repeated renders would
	// catch a renderer that walks the map.
	for i := 0; i < 20; i++ {
		if got := ClassShares(shares); got != want {
			t.Fatalf("render %d:\n%s\nwant legend order:\n%s", i, got, want)
		}
	}
}

func TestFigure3Rendering(t *testing.T) {
	rows := []analysis.CategoryValidation{{
		Name:         "AOSP 4.4 certs",
		TotalRoots:   4,
		ZeroFraction: 0.25,
		ECDF:         stats.NewECDF([]float64{0, 10, 20, 500}),
	}}
	out := Figure3(rows, 10)
	for _, want := range []string{"zero-offset=0.25", "x=0", "x=500", "y=1.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure3 missing %q:\n%s", want, out)
		}
	}
}

func TestHeadlinesRendering(t *testing.T) {
	out := Headlines(analysis.Headlines{
		TotalSessions: 15970, ExtendedFraction: 0.39, RootedFraction: 0.24,
		InterceptedSessions: 1,
	})
	for _, want := range []string{"15970", "39.0%", "24.0%", "TLS-intercepted sessions"} {
		if !strings.Contains(out, want) {
			t.Errorf("Headlines missing %q:\n%s", want, out)
		}
	}
}

func TestTrustAttributionRendering(t *testing.T) {
	out := TrustAttributionTable(analysis.TrustAttribution{
		TotalSessions: 100, Exposed: 30,
		ByCause: []analysis.CauseCount{
			{Cause: "store-tampering", Sessions: 12},
			{Cause: "clean", Sessions: 70},
		},
		Rows: []analysis.TrustAttributionRow{
			{Cause: "store-tampering", Channel: "system", APILevel: 19, Sessions: 5},
		},
	})
	for _, want := range []string{"Interceptable sessions", "Cause store-tampering", "system", "19"} {
		if !strings.Contains(out, want) {
			t.Errorf("TrustAttributionTable missing %q:\n%s", want, out)
		}
	}
}

func TestCSVWriters(t *testing.T) {
	var buf strings.Builder
	err := Figure1CSV(&buf, []analysis.ScatterPoint{
		{Manufacturer: "HTC", Version: "4.1", AOSPCerts: 139, ExtraCerts: 82, Sessions: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HTC,4.1,139,82,9") {
		t.Errorf("figure1 csv:\n%s", buf.String())
	}

	buf.Reset()
	err = Figure2CSV(&buf, []analysis.AttributionCell{{
		GroupKind: "operator", Group: "VERIZON(US)", CertName: "Certisign AC1S",
		CertHash: "deadbeef", Sessions: 12, Ratio: 0.65, Class: analysis.ClassNotRecorded,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "operator,VERIZON(US),Certisign AC1S,deadbeef,12,0.6500") {
		t.Errorf("figure2 csv:\n%s", buf.String())
	}

	buf.Reset()
	cats := []analysis.CategoryValidation{{
		Name: "AOSP 4.4 certs", TotalRoots: 150, ZeroFraction: 0.23, Validated: 12413,
		ECDF: stats.NewECDF([]float64{0, 5, 200}),
	}}
	if err := Figure3CSV(&buf, cats); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "AOSP 4.4 certs") != 3 {
		t.Errorf("figure3 csv should have one row per ECDF step:\n%s", out)
	}
	if !strings.Contains(out, "0.230000") {
		t.Errorf("figure3 csv missing zero offset:\n%s", out)
	}

	buf.Reset()
	if err := Table4CSV(&buf, cats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AOSP 4.4 certs,150,0.2300,12413") {
		t.Errorf("table4 csv:\n%s", buf.String())
	}
}
