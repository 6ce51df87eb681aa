package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
	"scan/internal/rpc"
)

// workload is one traffic mix and the daemon it runs against.
type workload struct {
	name string
	// preload is the number of run logs the knowledge base holds before
	// the first op.
	preload int
	// durable gives the daemon a fresh data directory (blob store,
	// manifest, KB WAL and snapshots).
	durable bool
	// workers is the number of in-process fleet workers joined at setup.
	workers int
	// tenant runs the daemon with one API-key tenant (full admission path).
	tenant bool
	// setup runs after the daemon is up and before the first op.
	setup func(ctx context.Context, d *daemon, seed int64) error
	// task builds op i's job; the same seed and i give the same task.
	task func(seed int64, i int) task
}

// task is one op: an optional dataset uploaded first (and deleted after),
// the job submission, and the check its result must pass. Checks run after
// the measured loop, so regenerating truth costs the loop nothing.
type task struct {
	family string
	upload *upload
	req    rpc.SubmitJobRequest
	check  func(rpc.JobResult) error
}

// upload is a dataset the op uploads through the public API.
type upload struct {
	name, family string
	parts        []part
}

type part struct {
	field string
	data  []byte
}

func (u *upload) size() int64 {
	var n int64
	for _, p := range u.parts {
		n += int64(len(p.data))
	}
	return n
}

// preloadRuns is the KB size of a long-lived daemon.
const preloadRuns = 20000

// warmTable is the feature table warm-mixed uploads once at setup and runs
// many dataset jobs over.
const (
	warmTable        = "warm-features"
	warmTableGenes   = 60
	warmTableModules = 3
)

var workloads = map[string]*workload{
	"warm-mixed": {
		name: "warm-mixed", preload: preloadRuns, tenant: true,
		setup: func(ctx context.Context, d *daemon, seed int64) error {
			u := featureUpload(warmTable, rand.New(rand.NewSource(seed)), warmTableGenes, warmTableModules)
			_, err := d.client.UploadDataset(ctx, u.name, u.family, u.rpcParts()...)
			return err
		},
		task: warmTask,
	},
	"cold-heavy": {name: "cold-heavy", task: heavyTask},
	"durable-fleet": {
		name: "durable-fleet", preload: preloadRuns, durable: true, workers: 2,
		task: fleetTask,
	},
}

// opSeed derives op i's input seed from the run seed.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// warmTask rotates the five kinds of op equally, as the repository's
// mixed-traffic generator (scansim -load) does: a dataset job over the
// setup's feature table, then one small job of each family. Sizes are large
// enough for every output check to hold.
func warmTask(seed int64, i int) task {
	s := opSeed(seed, i)
	switch i % 5 {
	case 0:
		return task{family: "integrative", req: rpc.SubmitJobRequest{Dataset: warmTable},
			check: wantModules(warmTableModules)}
	case 1:
		return genomicTask(&rpc.SyntheticSpec{ReferenceLength: 2000, Reads: 600, SNVs: 3, Seed: s})
	case 2:
		return proteomeTask(&rpc.ProteomeSpec{Proteins: 10, Spectra: 200, Seed: s})
	case 3:
		return imagingTask(&rpc.ImagingSpec{Images: 1, Width: 64, Height: 64, CellsPerImage: 4, Seed: s})
	default:
		return networkTask(&rpc.NetworkSpec{Genes: 50, Modules: 3, Seed: s})
	}
}

// heavyTask rotates the four families at sizes where the kernels, not
// planning, take most of each job.
func heavyTask(seed int64, i int) task {
	s := opSeed(seed, i)
	switch i % 4 {
	case 0:
		return genomicTask(&rpc.SyntheticSpec{ReferenceLength: 40000, Reads: 12000, SNVs: 20, Seed: s})
	case 1:
		return proteomeTask(&rpc.ProteomeSpec{Proteins: 80, Spectra: 2400, Seed: s})
	case 2:
		return imagingTask(&rpc.ImagingSpec{Images: 16, Width: 512, Height: 512, CellsPerImage: 80, Seed: s})
	default:
		return networkTask(&rpc.NetworkSpec{Genes: 2800, Modules: 8, Seed: s})
	}
}

// fleetTask generates a fresh dataset of the op's family, uploaded under a
// unique name, run once, and deleted.
func fleetTask(seed int64, i int) task {
	rng := rand.New(rand.NewSource(opSeed(seed, i)))
	name := fmt.Sprintf("fleet-%d-%d", seed, i)
	var t task
	switch i % 4 {
	case 0:
		t = fastqUpload(name, rng, 4000, 1200, 5)
	case 1:
		t = mgfUpload(name, rng, 20, 400)
	case 2:
		t = tiffUpload(name, rng, 2, 96, 6)
	default:
		u := featureUpload(name, rng, 200, 4)
		t = task{family: "integrative", upload: u, check: wantModules(4)}
	}
	t.req = rpc.SubmitJobRequest{Dataset: name}
	return t
}

// genomicTask submits a daemon-generated sequencing run. Its check
// regenerates the run from the same seed, as the daemon did, to learn
// which planted SNVs enough reads cover to be callable at all.
func genomicTask(spec *rpc.SyntheticSpec) task {
	return task{family: "genomic", req: rpc.SubmitJobRequest{Synthetic: spec},
		check: func(r rpc.JobResult) error {
			rng := rand.New(rand.NewSource(spec.Seed))
			ref := genomics.GenerateReference(rng, "chr1", spec.ReferenceLength)
			mutated, planted := genomics.PlantSNVs(rng, ref, spec.SNVs)
			reads, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
				Count: spec.Reads, Length: spec.EffectiveReadLength(), ErrorRate: spec.EffectiveErrorRate(),
			})
			if err != nil {
				return err
			}
			if r.Planted != len(planted) {
				return fmt.Errorf("scored %d planted SNVs, want %d", r.Planted, len(planted))
			}
			callable, err := callableSNVs(planted, reads)
			if err != nil {
				return err
			}
			return wantCalls(r.Recovered, callable, len(planted))
		}}
}

// callerMinDepth is the read depth the daemon's variant caller requires
// before it calls a site.
const callerMinDepth = 8

// callableSNVs counts the planted SNVs that at least callerMinDepth
// simulated reads cover. SNVs within a read length of a reference end can
// fall below that depth and legitimately go uncalled.
func callableSNVs(planted []genomics.Mutation, reads []genomics.Read) (int, error) {
	callable := 0
	for _, m := range planted {
		depth := 0
		for _, rd := range reads {
			// Simulated read IDs end in ":<start>".
			start, err := strconv.Atoi(rd.ID[strings.LastIndexByte(rd.ID, ':')+1:])
			if err != nil {
				return 0, fmt.Errorf("read %q carries no start position", rd.ID)
			}
			if start <= m.Pos && m.Pos < start+len(rd.Seq) {
				depth++
			}
		}
		if depth >= callerMinDepth {
			callable++
		}
	}
	return callable, nil
}

// wantCalls checks a call count: every callable SNV must be called, and
// nothing beyond the planted set.
func wantCalls(calls, callable, planted int) error {
	if calls < callable || calls > planted {
		return fmt.Errorf("called %d SNVs, want between the %d callable and the %d planted", calls, callable, planted)
	}
	return nil
}

// proteomeTask asks for at least 20 spectra per protein, so every planted
// protein is sampled and the search must quantify all of them.
func proteomeTask(spec *rpc.ProteomeSpec) task {
	return task{family: "proteomic", req: rpc.SubmitJobRequest{Proteome: spec}, check: wantProteins(spec.Proteins)}
}

func imagingTask(spec *rpc.ImagingSpec) task {
	return task{family: "imaging", req: rpc.SubmitJobRequest{Imaging: spec},
		check: wantCells(spec.Images * spec.CellsPerImage)}
}

func networkTask(spec *rpc.NetworkSpec) task {
	return task{family: "integrative", req: rpc.SubmitJobRequest{Network: spec}, check: wantModules(spec.Modules)}
}

func wantProteins(n int) func(rpc.JobResult) error {
	return func(r rpc.JobResult) error {
		if r.Proteins != n {
			return fmt.Errorf("quantified %d proteins, want %d", r.Proteins, n)
		}
		return nil
	}
}

func wantCells(n int) func(rpc.JobResult) error {
	return func(r rpc.JobResult) error {
		if r.Features != n {
			return fmt.Errorf("segmented %d cells, want %d", r.Features, n)
		}
		return nil
	}
}

func wantModules(n int) func(rpc.JobResult) error {
	return func(r rpc.JobResult) error {
		if r.Modules != n {
			return fmt.Errorf("found %d modules, want %d", r.Modules, n)
		}
		return nil
	}
}

// fastqUpload plants SNVs in a reference, simulates reads over the mutated
// genome at ~30× coverage, and uploads reads plus reference; every
// callable planted SNV must come back as a call. The check keeps only the
// two counts, so the reads are not held in the benchmark's heap.
func fastqUpload(name string, rng *rand.Rand, refLen, reads, snvs int) task {
	ref := genomics.GenerateReference(rng, "chr1", refLen)
	mutated, planted := genomics.PlantSNVs(rng, ref, snvs)
	rs, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
		Count: reads, Length: rpc.DefaultReadLength, ErrorRate: rpc.DefaultErrorRate,
	})
	if err != nil {
		panic(err) // fixed, valid sizes: a failure is a bug here
	}
	callable, err := callableSNVs(planted, rs)
	if err != nil {
		panic(err)
	}
	var fq, fa bytes.Buffer
	if err := genomics.WriteAllFASTQ(&fq, rs); err != nil {
		panic(err)
	}
	if err := genomics.WriteFASTA(&fa, []genomics.Sequence{ref}, 60); err != nil {
		panic(err)
	}
	return task{family: "genomic",
		upload: &upload{name: name, family: "fastq",
			parts: []part{{"data", fq.Bytes()}, {"reference", fa.Bytes()}}},
		check: func(r rpc.JobResult) error { return wantCalls(r.Variants, callable, len(planted)) }}
}

// mgfUpload simulates spectra from a peptide database (with the daemon's
// own acquisition noise) and uploads both; the proteins quantified must be
// exactly those the spectra were drawn from.
func mgfUpload(name string, rng *rand.Rand, proteins, spectra int) task {
	db := proteome.GenerateDatabase(rng, proteins, 3)
	specs, truth, err := proteome.SimulateSpectra(rng, db, proteome.SimConfig{
		Count: spectra, NoisePeaks: rpc.DefaultNoisePeaks, DropoutRate: 0.1, Jitter: 0.1,
	})
	if err != nil {
		panic(err)
	}
	sampled := map[string]bool{}
	for _, pi := range truth {
		sampled[db.Peptides[pi].Protein] = true
	}
	var peps, mgf bytes.Buffer
	for _, p := range db.Peptides {
		fmt.Fprintf(&peps, "%s %s %s\n", p.Protein, p.Name, joinFloats(p.Masses))
	}
	for _, s := range specs {
		fmt.Fprintf(&mgf, "BEGIN IONS\nTITLE=%s\n", s.ID)
		for _, m := range s.Peaks {
			mgf.WriteString(strconv.FormatFloat(m, 'f', 6, 64))
			mgf.WriteByte('\n')
		}
		mgf.WriteString("END IONS\n")
	}
	return task{family: "proteomic",
		upload: &upload{name: name, family: "mgf",
			parts: []part{{"peptides", peps.Bytes()}, {"spectra", mgf.Bytes()}}},
		check: wantProteins(len(sampled))}
}

// tiffUpload renders planted-cell frames as text PGM; segmentation must
// recover every planted cell.
func tiffUpload(name string, rng *rand.Rand, frames, side, cells int) task {
	var pgm bytes.Buffer
	planted := 0
	for f := 0; f < frames; f++ {
		im, cs, err := imaging.Generate(rng, fmt.Sprintf("img%d", f), imaging.SimConfig{W: side, H: side, Cells: cells})
		if err != nil {
			panic(err)
		}
		planted += len(cs)
		fmt.Fprintf(&pgm, "P2\n%d %d\n255\n", im.W, im.H)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				if x > 0 {
					pgm.WriteByte(' ')
				}
				pgm.WriteString(strconv.Itoa(int(im.At(x, y)*255 + 0.5)))
			}
			pgm.WriteByte('\n')
		}
	}
	return task{family: "imaging",
		upload: &upload{name: name, family: "tiff", parts: []part{{"data", pgm.Bytes()}}},
		check:  wantCells(planted)}
}

// featureUpload draws gene measurements from planted modules as a feature
// table upload.
func featureUpload(name string, rng *rand.Rand, genes, modules int) *upload {
	ms, _, err := network.SimulateMeasurements(rng, genes, modules)
	if err != nil {
		panic(err)
	}
	var rows bytes.Buffer
	for _, m := range ms {
		fmt.Fprintf(&rows, "%s %s\n", m.Name, strconv.FormatFloat(m.Value, 'f', 6, 64))
	}
	return &upload{name: name, family: "feature-table", parts: []part{{"data", rows.Bytes()}}}
}

func (u *upload) rpcParts() []rpc.UploadPart {
	parts := make([]rpc.UploadPart, len(u.parts))
	for i, p := range u.parts {
		parts[i] = rpc.UploadPart{Field: p.field, R: bytes.NewReader(p.data)}
	}
	return parts
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 6, 64)
	}
	return strings.Join(s, ",")
}
