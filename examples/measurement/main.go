// Command measurement regenerates the Section IV measurement study:
// the installer classifier over the Play and pre-installed populations
// (Tables II and III), the hard-coded market-link census (Table IV), the
// INSTALL_PACKAGES census (Table VI), and the platform-key and Hare
// studies.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/ghost-installer/gia"
)

func main() {
	seed := flag.Int64("seed", 2017, "corpus seed")
	scale := flag.Float64("scale", 1.0, "population scale (1.0 = paper-sized)")
	flag.Parse()
	if err := run(*seed, *scale); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64, scale float64) error {
	c := gia.GenerateCorpus(gia.CorpusConfig{Seed: seed, Scale: scale})
	fmt.Printf("corpus: %d play apps, %d factory images, %d store apps\n\n",
		len(c.PlayApps), len(c.Images), len(c.StoreApps))
	for _, tab := range gia.MeasurementTables(c) {
		fmt.Println(tab.Render())
	}
	return nil
}
