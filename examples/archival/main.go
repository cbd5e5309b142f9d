// Archival: a medical-records archive with a strict non-deletion policy —
// one of the application areas the paper's introduction motivates. Years
// of chart updates accumulate; old versions migrate incrementally to
// write-once optical media while the working set stays on magnetic disk.
//
// Migration is node at a time, as the paper's §3.4 specifies: a time
// split burns its historical half to the write-once device as part of
// the split itself, inside the Update that triggered it. The walkthrough
// watches that happen through Stats().Tree (time splits, historical
// nodes, versions migrated) and Stats().Device (SpaceM, SpaceO, sector
// utilization): the moment an update time splits a leaf, the historical
// node is already on the optical disk, so there is never a backlog to
// drain and every chart entry stays reachable throughout.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/txn"
)

func patient(i int) record.Key { return record.StringKey(fmt.Sprintf("patient%04d", i)) }

func main() {
	d, err := db.Open(db.Config{
		Shards:       2,
		LeafCapacity: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}

	const nPatients = 200
	rng := rand.New(rand.NewSource(11))

	// Admissions are insert-only: §3.2 says a node of all-current
	// versions must key split, so nothing migrates yet.
	for i := 0; i < nPatients; i++ {
		i := i
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(patient(i), []byte("admitted"))
		}); err != nil {
			log.Fatal(err)
		}
	}
	report(d, "after admissions")

	// Years of chart updates with a skewed access pattern (chronic cases
	// see many more updates). Superseded versions make time splits
	// worthwhile; each one burns its historical node inside the Update.
	// Check that on every update: the historical-node count never lags
	// the time-split count, not even for one commit.
	firstBurn := -1
	for visit := 0; visit < 4000; visit++ {
		p := rng.Intn(nPatients)
		if rng.Intn(4) == 0 {
			p = rng.Intn(10) // chronic cases
		}
		note := fmt.Sprintf("visit-%d: bp=%d/%d", visit, 100+rng.Intn(60), 60+rng.Intn(40))
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(patient(p), []byte(note))
		}); err != nil {
			log.Fatal(err)
		}
		t := d.Stats().Tree
		if t.HistoricalNodes != t.LeafTimeSplits+t.IndexTimeSplits {
			log.Fatalf("visit %d: %d time splits but %d historical nodes",
				visit, t.LeafTimeSplits+t.IndexTimeSplits, t.HistoricalNodes)
		}
		if firstBurn < 0 && t.HistoricalNodes > 0 {
			firstBurn = visit
			fmt.Printf("\nvisit %d time split a leaf: its historical node was burned by that same commit\n", visit)
		}
		if visit == 999 {
			report(d, "after 1000 visits")
		}
	}
	report(d, "after 4000 visits")

	// Every version is reachable, the burned ones included.
	h, err := d.History(patient(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npatient0003 chart has %d entries; first: %q, latest: %q\n",
		len(h), h[0].Value, h[len(h)-1].Value)

	// Reading a cold chart pays optical seeks; the device model accounts
	// for them.
	mag, worm := d.Devices()
	m0, w0 := mag.Stats().SimTime, worm.Stats().SimTime
	if _, err := d.History(patient(3)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold chart read cost: +%v simulated latency\n",
		(mag.Stats().SimTime-m0)+(worm.Stats().SimTime-w0))

	// Current-care lookups never leave the magnetic disk.
	w1 := worm.Stats().SectorReads
	for i := 0; i < 100; i++ {
		if _, _, err := d.Get(patient(rng.Intn(nPatients))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("100 current-chart lookups touched %d optical sectors (expected 0)\n",
		worm.Stats().SectorReads-w1)

	if err := d.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("index invariants: OK")
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}
}

// report prints the paper's space accounting: time splits and what they
// migrated (Stats().Tree), and the magnetic vs. optical space that
// resulted (Stats().Device).
func report(d *db.DB, when string) {
	st := d.Stats()
	t, dev := st.Tree, st.Device
	fmt.Printf("\n%s:\n", when)
	fmt.Printf("  splits:              %d leaf time, %d leaf key, %d index time\n",
		t.LeafTimeSplits, t.LeafKeySplits, t.IndexTimeSplits)
	fmt.Printf("  migrated:            %d historical nodes, %d versions, %d KiB\n",
		t.HistoricalNodes, t.VersionsMigrated, t.BytesMigrated/1024)
	fmt.Printf("  current database:    SpaceM %d KiB\n", dev.SpaceM/1024)
	fmt.Printf("  historical database: SpaceO %d KiB, sector utilization %.1f%%\n",
		dev.SpaceO/1024, 100*dev.Utilization)
}
