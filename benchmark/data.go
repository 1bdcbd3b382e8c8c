package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	blas "repro"
	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// variant is one timed operation kind: a query string under one engine
// and translator.
type variant struct {
	Name       string
	Query      string
	Engine     blas.Engine
	Translator blas.Translator
}

// The value-predicate queries of mix_auction_v1. V2 is also the "first
// query after a restart" of open_first_query_ms.
const (
	queryV1 = `/site/regions/asia/item[location="Japan"]/name`
	queryV2 = `/site/people/person/address[city="Tokyo"]/zipcode`
	queryV3 = `/site/people/person[name="Elena Haddad"]/emailaddress`
	queryE1 = `/site/people/person[name="Nobody"]/emailaddress`
)

var engines = []blas.Engine{blas.EngineRelational, blas.EngineTwig}

// mixAuctionV1 returns the 30 variants of the fixed query mix: twelve
// queries on both engines under the auto translator, plus QA1-QA3 on both
// engines under the paper's D-labeling baseline.
func mixAuctionV1() []variant {
	type nq struct{ name, query string }
	var qs []nq
	for _, n := range []string{"QA1", "QA2", "QA3"} {
		qs = append(qs, nq{n, bench.Fig10Queries[n]})
	}
	for _, n := range []string{"Q1", "Q2", "Q4", "Q5", "Q6"} {
		qs = append(qs, nq{n, bench.Fig15Queries[n]})
	}
	qs = append(qs, nq{"V1", queryV1}, nq{"V2", queryV2}, nq{"V3", queryV3}, nq{"E1", queryE1})
	var out []variant
	for _, q := range qs {
		for _, e := range engines {
			out = append(out, variant{q.name + "/" + string(e) + "/auto", q.query, e, blas.TranslatorAuto})
		}
	}
	for _, q := range qs[:3] {
		for _, e := range engines {
			out = append(out, variant{q.name + "/" + string(e) + "/dlabel", q.query, e, blas.TranslatorDLabel})
		}
	}
	return out
}

// shuffled returns vs in a seed-determined order.
func shuffled(vs []variant, rnd *rand.Rand) []variant {
	out := append([]variant(nil), vs...)
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// document is one generated Auction instance written to disk.
type document struct {
	tree     *xmltree.Node
	xmlPath  string
	xmlBytes int64
}

// generateDocument builds the Auction tree for seed and serializes it to
// dir/name, the file the program under test is given.
func generateDocument(dir, name string, seed int64, factor int) (*document, error) {
	tree := datagen.Auction(datagen.Options{Seed: seed, Factor: factor})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := xmltree.WriteXML(w, tree); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &document{tree: tree, xmlPath: path, xmlBytes: fi.Size()}, nil
}

// population builds the serve_open traffic population: the 30 mix
// variants followed by the V1-V3 templates expanded over the values the
// generated document actually holds (regions, locations, cities, person
// names), alternating engines. Index is popularity rank. The order is
// the same for every seed (a fixed shuffle inside the mix and inside each
// family): a Zipf head that changed with the seed would make one seed's
// traffic several times dearer than another's. The seed still decides
// the document's content and which ranks are drawn when. A positive limit
// keeps only the head ranks (self-test sizing).
func population(tree *xmltree.Node, limit int) []variant {
	rnd := rand.New(rand.NewSource(populationOrderSeed))
	var regions []string
	locations, cities, names := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, top := range tree.Children {
		switch top.Tag {
		case "regions":
			for _, r := range top.Children {
				regions = append(regions, r.Tag)
				for _, item := range r.Children {
					for _, c := range item.Children {
						if c.Tag == "location" {
							locations[c.Text] = true
						}
					}
				}
			}
		case "people":
			for _, p := range top.Children {
				for _, c := range p.Children {
					switch c.Tag {
					case "name":
						names[c.Text] = true
					case "address":
						for _, a := range c.Children {
							if a.Tag == "city" {
								cities[a.Text] = true
							}
						}
					}
				}
			}
		}
	}
	var v1, v2, v3 []string
	for _, r := range regions {
		for _, l := range sortedKeys(locations) {
			for _, leaf := range []string{"name", "quantity", "payment"} {
				v1 = append(v1, fmt.Sprintf(`/site/regions/%s/item[location="%s"]/%s`, r, l, leaf))
			}
		}
	}
	for _, c := range sortedKeys(cities) {
		for _, leaf := range []string{"zipcode", "street", "country"} {
			v2 = append(v2, fmt.Sprintf(`/site/people/person/address[city="%s"]/%s`, c, leaf))
		}
	}
	for _, n := range sortedKeys(names) {
		for _, leaf := range []string{"emailaddress", "phone", "creditcard", "address/city", "profile/business"} {
			v3 = append(v3, fmt.Sprintf(`/site/people/person[name="%s"]/%s`, n, leaf))
		}
	}
	out := shuffled(mixAuctionV1(), rnd)
	for _, family := range [][]string{v2, v1, v3} {
		rnd.Shuffle(len(family), func(i, j int) { family[i], family[j] = family[j], family[i] })
		for _, q := range family {
			e := engines[len(out)%2]
			out = append(out, variant{fmt.Sprintf("T%d/%s/auto", len(out), e), q, e, blas.TranslatorAuto})
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// populationOrderSeed fixes the rank order of population.
const populationOrderSeed = 2004

// zipfStream returns n population indexes in which rank k appears in
// proportion to 1/(k+1)^1.1, in a seed-shuffled order. The counts are the
// expected ones rather than drawn: with independent draws, how many of
// the few very large responses a window happens to hold varies enough
// from seed to seed to move its tail latency by a factor of two.
func zipfStream(rnd *rand.Rand, popSize, n int) []int {
	weights := make([]float64, popSize)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -1.1)
		total += weights[k]
	}
	out := make([]int, 0, n)
	acc := 0.0
	for k, w := range weights {
		acc += w / total * float64(n)
		for float64(len(out))+0.5 <= acc {
			out = append(out, k)
		}
	}
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// distinctQueries lists the distinct query strings of vs.
func distinctQueries(vs []variant) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range vs {
		if !seen[v.Query] {
			seen[v.Query] = true
			out = append(out, v.Query)
		}
	}
	return out
}
