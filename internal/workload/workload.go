package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kind identifies one of the evaluated workloads.
type Kind int

// The evaluated workloads.
const (
	MicroBench Kind = iota
	DataCaching
	Elasticsearch
	SparkSQL
)

// String names the workload like the paper's tables do.
func (k Kind) String() string {
	switch k {
	case MicroBench:
		return "micro-benchmark"
	case DataCaching:
		return "data-caching"
	case Elasticsearch:
		return "elasticsearch"
	case SparkSQL:
		return "spark-sql"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds returns the workloads in the paper's presentation order.
func AllKinds() []Kind {
	return []Kind{MicroBench, Elasticsearch, DataCaching, SparkSQL}
}

// KindByName resolves a workload name ("spark-sql", ...). Every front end
// that takes one resolves it here; the error lists the valid set.
func KindByName(name string) (Kind, error) {
	valid := make([]string, 0, len(AllKinds()))
	for _, k := range AllKinds() {
		if k.String() == name {
			return k, nil
		}
		valid = append(valid, k.String())
	}
	return 0, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Profile describes the locality structure of a workload's memory accesses.
type Profile struct {
	// Kind identifies the workload.
	Kind Kind
	// HotFraction is the fraction of the VM's reserved pages that form the
	// hot set (re-accessed constantly).
	HotFraction float64
	// HotHitRate is the probability that an access falls in the hot set.
	HotHitRate float64
	// WritesFraction is the probability that an access is a write.
	WritesFraction float64
	// OpsPerPage is the number of accesses generated per reserved page per
	// iteration (controls stream length relative to the VM size).
	OpsPerPage int
	// Description summarises what the profile stands for.
	Description string
}

// ProfileOf returns the canonical locality profile of a workload. The hot-set
// fractions and hit rates are fitted so that the RAM Ext penalty curves
// reproduce the shape of Table 1: the micro-benchmark collapses below 50%
// local memory, Spark SQL is the most sensitive macro workload, Data Caching
// the least.
func ProfileOf(k Kind) Profile {
	switch k {
	case MicroBench:
		// The worst case: the benchmark sweeps its whole working set, but the
		// actively re-iterated region is just under half of the reservation,
		// which is what produces the paper's cliff between 40% and 50% local.
		return Profile{
			Kind:           k,
			HotFraction:    0.45,
			HotHitRate:     0.99,
			WritesFraction: 0.5,
			OpsPerPage:     4,
			Description:    "array sweep over 4 KiB entries, re-iterating a ~45% hot region",
		}
	case DataCaching:
		// Memcached with a Twitter workload: highly skewed key popularity.
		return Profile{
			Kind:           k,
			HotFraction:    0.18,
			HotHitRate:     0.985,
			WritesFraction: 0.1,
			OpsPerPage:     4,
			Description:    "skewed key-value GET/SET traffic (CloudSuite Data Caching)",
		}
	case Elasticsearch:
		// Structured-data queries over the NYC taxi index: moderate locality,
		// index pages hot, shard data colder.
		return Profile{
			Kind:           k,
			HotFraction:    0.30,
			HotHitRate:     0.96,
			WritesFraction: 0.15,
			OpsPerPage:     4,
			Description:    "index-heavy query traffic (Elasticsearch NYC taxi benchmark)",
		}
	case SparkSQL:
		// BigBench Q23 scans large partitions: the weakest locality of the
		// macro workloads, hence the highest penalties in Table 1.
		return Profile{
			Kind:           k,
			HotFraction:    0.40,
			HotHitRate:     0.93,
			WritesFraction: 0.3,
			OpsPerPage:     4,
			Description:    "scan-heavy analytics (Spark SQL BigBench query 23)",
		}
	default:
		return Profile{Kind: k, HotFraction: 0.5, HotHitRate: 0.9, WritesFraction: 0.3, OpsPerPage: 2}
	}
}

// Access is one guest memory access.
type Access struct {
	// Page is the pseudo-physical page touched.
	Page int
	// Write reports whether the access is a write.
	Write bool
}

// Stream is a deterministic, replayable sequence of page accesses.
type Stream struct {
	profile Profile
	pages   int
	rng     *rand.Rand
	emitted int
	length  int
	hotSize int
}

// NewStream builds a stream over a VM of the given size in pages, running the
// profile for iterations passes. The same (profile, pages, iterations, seed)
// always produces the same stream.
func NewStream(p Profile, pages, iterations int, seed int64) (*Stream, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("workload: stream needs a positive page count")
	}
	if iterations <= 0 {
		iterations = 1
	}
	if p.OpsPerPage <= 0 {
		p.OpsPerPage = 1
	}
	hot := int(float64(pages) * p.HotFraction)
	if hot < 1 {
		hot = 1
	}
	return &Stream{
		profile: p,
		pages:   pages,
		rng:     rand.New(rand.NewSource(seed)),
		length:  pages * p.OpsPerPage * iterations,
		hotSize: hot,
	}, nil
}

// Len returns the total number of accesses the stream will emit.
func (s *Stream) Len() int { return s.length }

// Remaining returns how many accesses are left.
func (s *Stream) Remaining() int { return s.length - s.emitted }

// Next returns the next access; ok is false when the stream is exhausted.
func (s *Stream) Next() (Access, bool) {
	if s.emitted >= s.length {
		return Access{}, false
	}
	s.emitted++
	var page int
	if s.rng.Float64() < s.profile.HotHitRate {
		// Hot pages are hit with a skewed (Zipf-like) popularity; even the
		// micro-benchmark's array sweep re-visits the low entries more often
		// because the iteration restarts there.
		page = s.zipfHot()
	} else {
		// Cold accesses are uniform over the rest of the reservation.
		coldSpan := s.pages - s.hotSize
		if coldSpan <= 0 {
			page = s.rng.Intn(s.pages)
		} else {
			page = s.hotSize + s.rng.Intn(coldSpan)
		}
	}
	return Access{Page: page, Write: s.rng.Float64() < s.profile.WritesFraction}, true
}

// zipfHot picks a hot page with a heavy-tailed popularity (approximated by
// squaring a uniform variate, which concentrates mass on low page numbers
// without the setup cost of a full Zipf generator).
func (s *Stream) zipfHot() int {
	u := s.rng.Float64()
	return int(u * u * float64(s.hotSize))
}
