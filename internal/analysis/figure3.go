package analysis

import (
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/notary"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/stats"
)

// Category is one of the root-certificate populations Figure 3 and Table 4
// partition over.
type Category struct {
	Name  string
	Store *rootstore.Store
}

// Figure3Categories builds the paper's eight categories from the universe.
func Figure3Categories(u *cauniverse.Universe) []Category {
	aosp44 := u.AOSP("4.4")
	moz := u.Mozilla()
	extras := rootstore.New("Non AOSP Android certs")
	for _, r := range u.Extras() {
		extras.Add(r.Issued.Cert)
	}
	extrasNonMoz := rootstore.Subtract("Non AOSP and non Mozilla Android certs", extras, moz)
	extrasOnMoz := rootstore.Intersect("Non AOSP root certs found on Mozilla's", extras, moz)
	shared := rootstore.Intersect("AOSP 4.4 and Mozilla root certs", aosp44, moz)

	return []Category{
		{"Non AOSP and non Mozilla Android certs", extrasNonMoz},
		{"Non AOSP root certs found on Mozilla's", extrasOnMoz},
		{"AOSP 4.4 and Mozilla root certs", shared},
		{"AOSP 4.1 certs", u.AOSP("4.1")},
		{"AOSP 4.4 certs", aosp44},
		{"Aggregated Android root certs", u.AggregatedAndroid()},
		{"Mozilla root store certs", moz},
		{"iOS 7 root store certs", u.IOS7()},
	}
}

// CategoryValidation is one Table 4 row plus the Figure 3 ECDF sample.
type CategoryValidation struct {
	Name string
	// TotalRoots is the category's certificate count (Table 4 column 2).
	TotalRoots int
	// ZeroFraction is the share of roots validating no Notary certificate
	// (Table 4 column 3, Figure 3's y-offset).
	ZeroFraction float64
	// Validated is the number of Notary leaves the category's roots
	// validate collectively (Table 3 when the category is a full store).
	Validated int
	// ECDF is the distribution of per-root validation counts (Figure 3).
	ECDF *stats.ECDF
}

// ValidateCategories runs the Notary validation analysis over categories in
// one pass (Tables 3–4 and Figure 3 all come from this): Notary.Validate
// builds every leaf's chains once against the union of the categories'
// roots, and each category's report becomes one row.
func ValidateCategories(n *notary.Notary, cats []Category) []CategoryValidation {
	stores := make([]*rootstore.Store, len(cats))
	for i, c := range cats {
		stores[i] = c.Store
	}
	out := make([]CategoryValidation, len(cats))
	for i, rep := range n.Validate(stores...) {
		out[i] = CategoryValidation{
			Name:         cats[i].Name,
			TotalRoots:   rep.Store.Len(),
			ZeroFraction: rep.ZeroValidationFraction(),
			Validated:    rep.Validated,
			ECDF:         stats.NewECDF(rep.PerRootCounts()),
		}
	}
	return out
}

// Table3 validates the four AOSP versions plus Mozilla and iOS7, returning
// rows in the paper's order.
func Table3(n *notary.Notary, u *cauniverse.Universe) []CategoryValidation {
	cats := []Category{
		{"Mozilla", u.Mozilla()},
		{"iOS 7", u.IOS7()},
	}
	for _, v := range cauniverse.AOSPVersions() {
		cats = append(cats, Category{"AOSP " + v, u.AOSP(v)})
	}
	return ValidateCategories(n, cats)
}
