package dataset

import (
	"bufio"
	"context"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tangledmass/internal/corpus"
	"tangledmass/internal/device"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
)

// HandsetRecord is the JSONL schema for one handset.
type HandsetRecord struct {
	ID           int    `json:"id"`
	Model        string `json:"model"`
	Manufacturer string `json:"manufacturer"`
	Operator     string `json:"operator"`
	Country      string `json:"country"`
	Version      string `json:"version"`
	Rooted       bool   `json:"rooted"`
	// RootedExclusive marks handsets carrying Table 5 rooted-only roots.
	RootedExclusive bool `json:"rooted_exclusive,omitempty"`
	Intercepted     bool `json:"intercepted"`
	Sessions        int  `json:"sessions"`
	// System and User reference certificates in certs.pem by SHA-256.
	System []string `json:"system"`
	User   []string `json:"user,omitempty"`
	// Profiles carries the handset's app validation profiles in draw order.
	// Absent in datasets written before the app-profile column; loaders then
	// leave the device policy-free and sessions fall back to the strict
	// platform default.
	Profiles []PolicyRecord `json:"app_profiles,omitempty"`
}

// PolicyRecord is the serialized form of one app validation profile
// (device.ValidationPolicy). Flags are omitted when false, so the strict
// profiles serialize as just their name.
type PolicyRecord struct {
	App          string `json:"app"`
	AcceptAll    bool   `json:"accept_all,omitempty"`
	SkipHostname bool   `json:"skip_hostname,omitempty"`
	BypassPins   bool   `json:"bypass_pins,omitempty"`
}

// policyRecords converts a device's policy set to its serialized form.
func policyRecords(d *device.Device) []PolicyRecord {
	pols := d.Policies()
	if len(pols) == 0 {
		return nil
	}
	out := make([]PolicyRecord, len(pols))
	for i, p := range pols {
		out[i] = PolicyRecord{App: p.App, AcceptAll: p.AcceptAll, SkipHostname: p.SkipHostname, BypassPins: p.BypassPins}
	}
	return out
}

// restorePolicies replays serialized app profiles onto a restored device in
// recorded order, so Generate and a load round-trip rotate sessions over
// identical policy sequences.
func restorePolicies(d *device.Device, recs []PolicyRecord) {
	for _, r := range recs {
		d.AddPolicy(device.ValidationPolicy{App: r.App, AcceptAll: r.AcceptAll, SkipHostname: r.SkipHostname, BypassPins: r.BypassPins})
	}
}

// countingWriter counts bytes on their way to the underlying writer so the
// dataset.write.bytes counter reflects actual on-disk volume.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeJSONL serializes p into dir as certs.pem + handsets.jsonl — the v1
// interchange format, byte-identical to what the original Write produced.
func writeJSONL(ctx context.Context, dir string, p *population.Population, cfg config) error {
	// Collect distinct certificates across all stores as corpus handles.
	seen := map[string]corpus.Ref{}
	collect := func(s *rootstore.Store) []string {
		fps := make([]string, 0, s.Len())
		if s.Corpus() == cfg.corpus {
			for _, ref := range s.Refs() {
				e := cfg.corpus.Entry(ref)
				seen[e.SHA256] = ref
				fps = append(fps, e.SHA256)
			}
			return fps
		}
		for _, c := range s.Certificates() {
			ref := cfg.corpus.InternCert(c)
			e := cfg.corpus.Entry(ref)
			seen[e.SHA256] = ref
			fps = append(fps, e.SHA256)
		}
		return fps
	}

	hf, err := os.Create(filepath.Join(dir, handsetsFile))
	if err != nil {
		return fmt.Errorf("dataset: creating handsets file: %w", err)
	}
	defer hf.Close()
	hcw := &countingWriter{w: hf}
	hw := bufio.NewWriter(hcw)
	enc := json.NewEncoder(hw)
	for _, h := range p.Handsets {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dataset: write cancelled: %w", err)
		}
		rec := HandsetRecord{
			ID:              h.ID,
			Model:           h.Model,
			Manufacturer:    h.Manufacturer,
			Operator:        h.Operator,
			Country:         h.Country,
			Version:         h.Version,
			Rooted:          h.Rooted,
			RootedExclusive: h.RootedExclusive,
			Intercepted:     h.Intercepted,
			Sessions:        h.SessionCount,
			System:          collect(h.Device.SystemStore()),
			User:            collect(h.Device.UserStore()),
			Profiles:        policyRecords(h.Device),
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("dataset: writing handset %d: %w", h.ID, err)
		}
	}
	if err := hw.Flush(); err != nil {
		return fmt.Errorf("dataset: flushing handsets: %w", err)
	}

	cf, err := os.Create(filepath.Join(dir, certsFile))
	if err != nil {
		return fmt.Errorf("dataset: creating certs file: %w", err)
	}
	defer cf.Close()
	ccw := &countingWriter{w: cf}
	cw := bufio.NewWriter(ccw)
	fps := make([]string, 0, len(seen))
	for fp := range seen {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		if err := pem.Encode(cw, &pem.Block{Type: "CERTIFICATE", Bytes: cfg.corpus.DER(seen[fp])}); err != nil {
			return fmt.Errorf("dataset: writing certificate: %w", err)
		}
	}
	if err := cw.Flush(); err != nil {
		return fmt.Errorf("dataset: flushing certs: %w", err)
	}
	cfg.observer.Counter(KeyWriteBytes).Add(hcw.n + ccw.n)
	return nil
}

// eachRecord decodes every non-blank line of dir's handsets.jsonl, checks
// the handset and hands the record to fn, in file order, then checks the
// session total. It returns the file's size.
func eachRecord(ctx context.Context, dir string, fn func(HandsetRecord) error) (int64, error) {
	hf, err := os.Open(filepath.Join(dir, handsetsFile))
	if err != nil {
		return 0, fmt.Errorf("dataset: opening handsets: %w", err)
	}
	defer hf.Close()
	total := 0
	scanner := bufio.NewScanner(hf)
	scanner.Buffer(make([]byte, 64<<10), 8<<20)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("dataset: read cancelled: %w", err)
		}
		var rec HandsetRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, fmt.Errorf("dataset: handset record: %w", err)
		}
		if err := checkHandset(rec.ID, rec.Version, rec.Sessions); err != nil {
			return 0, err
		}
		total += rec.Sessions
		if err := fn(rec); err != nil {
			return 0, err
		}
	}
	st, err := hf.Stat()
	if err == nil {
		err = scanner.Err()
	}
	if err != nil {
		return 0, fmt.Errorf("dataset: scanning handsets: %w", err)
	}
	return st.Size(), checkSessionTotal(total, st.Size())
}

// readJSONL loads the v1 format. Certificates are interned into the
// configured corpus once, at PEM-parse time; every fingerprint then resolves
// to a corpus.Ref handle and stores are reconstructed by handle — nothing is
// parsed or fingerprinted a second time.
func readJSONL(ctx context.Context, dir string, cfg config) (*population.Population, error) {
	certData, err := os.ReadFile(filepath.Join(dir, certsFile))
	if err != nil {
		return nil, fmt.Errorf("dataset: reading certs: %w", err)
	}
	refs, err := cfg.corpus.ParsePEM(certData)
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing certs: %w", err)
	}
	cfg.observer.Counter(KeyReadBytes).Add(int64(len(certData)))
	cfg.observer.Counter(KeyCertsInterned).Add(int64(len(refs)))
	byFP := make(map[string]corpus.Ref, len(refs))
	for _, ref := range refs {
		byFP[cfg.corpus.Entry(ref).SHA256] = ref
	}
	// storeOf rebuilds one of a handset's stores by handle from its
	// fingerprints.
	storeOf := func(fps []string, what string, id int, name string) (*rootstore.Store, error) {
		s := rootstore.NewSized(name+" "+what, cfg.corpus, len(fps))
		for _, fp := range fps {
			ref, ok := byFP[fp]
			if !ok {
				return nil, fmt.Errorf("dataset: handset %d references unknown %s certificate %s", id, what, fp)
			}
			s.AddRef(ref)
		}
		return s, nil
	}

	var handsets []*population.Handset
	size, err := eachRecord(ctx, dir, func(rec HandsetRecord) error {
		prof := device.Profile{
			Model:        rec.Model,
			Manufacturer: rec.Manufacturer,
			Operator:     rec.Operator,
			Country:      rec.Country,
			Version:      rec.Version,
		}
		// Reconstruct the device by handle: the serialized system store is
		// an exact snapshot of the device's system image; user certificates
		// arrive in their own store; rooting is restored directly.
		name := prof.Manufacturer + " " + prof.Model
		system, err := storeOf(rec.System, "system", rec.ID, name)
		if err != nil {
			return err
		}
		var user *rootstore.Store
		if len(rec.User) > 0 {
			if user, err = storeOf(rec.User, "user", rec.ID, name); err != nil {
				return err
			}
		}
		dev := device.Restore(prof, system, user, rec.Rooted)
		restorePolicies(dev, rec.Profiles)
		handsets = append(handsets, &population.Handset{
			ID:              rec.ID,
			Profile:         prof,
			Rooted:          rec.Rooted,
			RootedExclusive: rec.RootedExclusive,
			Device:          dev,
			SessionCount:    rec.Sessions,
			Intercepted:     rec.Intercepted,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg.observer.Counter(KeyReadBytes).Add(size)
	// A JSONL load reconstructs the population as one sequential batch.
	cfg.observer.Counter(KeyBatchesMerged).Inc()
	return population.Assemble(cfg.universe, handsets), nil
}

// inspectJSONL summarizes (and with full set, integrity-checks) a v1
// dataset: full resolves every fingerprint reference and interns every
// certificate; the cheap path only counts blocks and records.
func inspectJSONL(ctx context.Context, dir string, cfg config, full bool) (*Info, error) {
	certData, err := os.ReadFile(filepath.Join(dir, certsFile))
	if err != nil {
		return nil, fmt.Errorf("dataset: reading certs: %w", err)
	}
	info := &Info{Format: JSONL, Bytes: int64(len(certData))}
	byFP := map[string]bool{}
	if full {
		refs, err := cfg.corpus.ParsePEM(certData)
		if err != nil {
			return nil, fmt.Errorf("dataset: parsing certs: %w", err)
		}
		cfg.observer.Counter(KeyCertsInterned).Add(int64(len(refs)))
		for _, ref := range refs {
			byFP[cfg.corpus.Entry(ref).SHA256] = true
		}
		info.Certs = len(byFP)
	} else {
		rest := certData
		for {
			var block *pem.Block
			block, rest = pem.Decode(rest)
			if block == nil {
				break
			}
			info.Certs++
		}
	}

	size, err := eachRecord(ctx, dir, func(rec HandsetRecord) error {
		if full {
			for _, fp := range append(append([]string{}, rec.System...), rec.User...) {
				if !byFP[fp] {
					return fmt.Errorf("dataset: handset %d references unknown certificate %s", rec.ID, fp)
				}
			}
		}
		info.Handsets++
		info.Sessions += rec.Sessions
		return nil
	})
	if err != nil {
		return nil, err
	}
	info.Bytes += size
	cfg.observer.Counter(KeyReadBytes).Add(info.Bytes)
	return info, nil
}
