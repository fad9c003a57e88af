// Package orgs models organizations and their sibling Autonomous Systems,
// and implements the (country, AS) → (country, org) aggregation of the
// paper's §3.1 ("Combining Orgs to Compare Datasets"): every dataset is
// reduced to (country, org) pairs before comparison so that sibling-AS
// bookkeeping differences between data sources cancel out.
package orgs

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// Type classifies what kind of network an organization operates. The type
// determines how the org shows up in each dataset: access and mobile
// networks host users; enterprise networks host few; cloud and CDN
// networks carry traffic without hosting ad-reachable users; VPN providers
// concentrate foreign users behind locally-geolocated egress IPs.
type Type int

// Organization types.
const (
	FixedAccess Type = iota
	MobileCarrier
	ConvergedAccess // fixed + mobile under one org
	Enterprise
	CloudProvider
	CDNProvider
	VPNProvider
)

func (t Type) String() string {
	switch t {
	case FixedAccess:
		return "fixed-access"
	case MobileCarrier:
		return "mobile"
	case ConvergedAccess:
		return "converged-access"
	case Enterprise:
		return "enterprise"
	case CloudProvider:
		return "cloud"
	case CDNProvider:
		return "cdn"
	case VPNProvider:
		return "vpn"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// HostsUsers reports whether networks of this type primarily host human
// eyeballs (as opposed to servers or transit).
func (t Type) HostsUsers() bool {
	switch t {
	case FixedAccess, MobileCarrier, ConvergedAccess:
		return true
	default:
		return false
	}
}

// IsAccess reports whether the broadband-subscriber dataset would survey
// this type (it covers access networks only, §3.3).
func (t Type) IsAccess() bool {
	return t == FixedAccess || t == ConvergedAccess
}

// Org is an organization operating one or more sibling ASes.
type Org struct {
	ID   string // stable identifier, e.g. "FR-ACC-03"
	Name string // display name
	Type Type
	Home string   // home country ISO code
	ASNs []uint32 // sibling ASes, ascending
}

// CountryAS keys per-(country, AS) dataset rows.
type CountryAS struct {
	Country string
	ASN     uint32
}

// CountryOrg keys per-(country, org) dataset rows after aggregation.
type CountryOrg struct {
	Country string
	Org     string // Org.ID
}

// CompareCountryOrg orders pairs by country, then org: the row order of
// every per-(country, org) dataset frame.
func CompareCountryOrg(a, b CountryOrg) int {
	return cmp.Or(strings.Compare(a.Country, b.Country), strings.Compare(a.Org, b.Org))
}

// Registry resolves ASes to their owning organizations.
type Registry struct {
	byID  map[string]*Org
	byASN map[uint32]*Org
	ids   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:  map[string]*Org{},
		byASN: map[uint32]*Org{},
	}
}

// Add registers an organization. It returns an error on duplicate org IDs
// or ASNs — sibling sets must partition the AS number space.
func (r *Registry) Add(o *Org) error {
	if o == nil || o.ID == "" {
		return fmt.Errorf("orgs: nil or unnamed org")
	}
	if _, dup := r.byID[o.ID]; dup {
		return fmt.Errorf("orgs: duplicate org ID %q", o.ID)
	}
	if len(o.ASNs) == 0 {
		return fmt.Errorf("orgs: org %q has no ASNs", o.ID)
	}
	for _, asn := range o.ASNs {
		if prev, dup := r.byASN[asn]; dup {
			return fmt.Errorf("orgs: AS%d already owned by %q", asn, prev.ID)
		}
	}
	r.byID[o.ID] = o
	for _, asn := range o.ASNs {
		r.byASN[asn] = o
	}
	r.ids = append(r.ids, o.ID)
	sort.Strings(r.ids)
	return nil
}

// ByID returns the org with the given ID.
func (r *Registry) ByID(id string) (*Org, bool) {
	o, ok := r.byID[id]
	return o, ok
}

// ByASN returns the org owning the given AS.
func (r *Registry) ByASN(asn uint32) (*Org, bool) {
	o, ok := r.byASN[asn]
	return o, ok
}

// Len returns the number of registered organizations.
func (r *Registry) Len() int { return len(r.byID) }

// IDs returns all org IDs in sorted order.
func (r *Registry) IDs() []string {
	return append([]string(nil), r.ids...)
}

// All returns all orgs sorted by ID.
func (r *Registry) All() []*Org {
	out := make([]*Org, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, r.byID[id])
	}
	return out
}

// Aggregate converts a per-(country, AS) measurement into a per-
// (country, org) measurement by summing sibling ASes, the paper's §3.1
// normalization. ASes not present in the registry are aggregated under a
// synthetic org ID "AS<asn>" so that unattributed measurements are kept
// visible rather than silently dropped.
func (r *Registry) Aggregate(byAS map[CountryAS]float64) map[CountryOrg]float64 {
	// Several ASes can fold into one org, so the += below sums floats;
	// iterate in sorted key order to keep those sums bit-reproducible.
	keys := make([]CountryAS, 0, len(byAS))
	for k := range byAS {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Country != keys[j].Country {
			return keys[i].Country < keys[j].Country
		}
		return keys[i].ASN < keys[j].ASN
	})
	out := make(map[CountryOrg]float64, len(byAS))
	for _, k := range keys {
		id := fmt.Sprintf("AS%d", k.ASN)
		if o, ok := r.byASN[k.ASN]; ok {
			id = o.ID
		}
		out[CountryOrg{Country: k.Country, Org: id}] += byAS[k]
	}
	return out
}

// CountryShares extracts one country's org→value map from a
// (country, org) keyed measurement.
func CountryShares(m map[CountryOrg]float64, country string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if k.Country == country {
			out[k.Org] = v
		}
	}
	return out
}

// Countries returns the sorted set of countries present in a measurement.
func Countries(m map[CountryOrg]float64) []string {
	seen := map[string]bool{}
	for k := range m {
		seen[k.Country] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
