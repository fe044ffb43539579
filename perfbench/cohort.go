package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"

	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
)

// Everything a device contributes is drawn from the workload seed: its
// plaintext vector for each round, and the dealer's zero-sum masks. Ticket
// IDs and session keys are drawn by the node and the enclaves themselves, so
// the MAC and ticket fields of a frame are the only bytes a seed does not
// fix.

// contribution is device d's plaintext vector for a round: tenantDim
// weights in [0, 1), which the unit-range predicate accepts.
func contribution(seed int64, round uint64, device int) fixed.Vector {
	rng := rand.New(rand.NewPCG(uint64(seed), round<<32|uint64(device)))
	v := fixed.NewVector(tenantDim)
	for i := range v {
		v[i] = fixed.FromFloat(rng.Float64())
	}
	return v
}

// referenceSum is the plaintext sum of a round's cohort, the value the
// released aggregate must equal once the masks cancel.
func referenceSum(seed int64, round uint64, devices int) []uint64 {
	sum := fixed.NewVector(tenantDim)
	for d := 0; d < devices; d++ {
		sum.AddInPlace(contribution(seed, round, d))
	}
	return glimmer.VectorToBits(sum)
}

// roundMasks draws the dealer's zero-sum masks for one round of a cohort.
func roundMasks(seed int64, round uint64, devices int) ([]fixed.Vector, error) {
	var buf [24]byte
	copy(buf[:8], "perfbnch")
	binary.BigEndian.PutUint64(buf[8:], uint64(seed))
	binary.BigEndian.PutUint64(buf[16:], round)
	return blind.ZeroSumMasks(buf[:], devices, tenantDim)
}

// provisionCohort loads count dealer-mode Glimmers on the node's platform
// and provisions device d with its masks for every round in rounds. The
// node's service and tenant vet the devices' measurement. Work is split
// over workers goroutines.
func (n *node) provisionCohort(seed int64, count int, rounds []uint64, workers int) ([]*glimmer.Device, error) {
	cfg, err := n.deviceConfig()
	if err != nil {
		return nil, err
	}
	meas := glimmer.BuildBinary(cfg).Measurement()
	n.svc.Vet(meas)
	n.tenant.Manager().Vet(meas)

	masks := make([][]fixed.Vector, len(rounds)) // [round][device]
	for i, r := range rounds {
		if masks[i], err = roundMasks(seed, r, count); err != nil {
			return nil, fmt.Errorf("masks for round %d: %w", r, err)
		}
	}
	devices := make([]*glimmer.Device, count)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := w; d < count; d += workers {
				dev, err := glimmer.NewDevice(n.platform, cfg)
				if err != nil {
					errs[w] = fmt.Errorf("device %d: %w", d, err)
					return
				}
				devices[d] = dev
				payload, err := n.svc.BasePayload()
				if err != nil {
					errs[w] = err
					return
				}
				payload.Masks = make(map[uint64][]uint64, len(rounds))
				for i, r := range rounds {
					payload.Masks[r] = glimmer.VectorToBits(masks[i][d])
				}
				if err := n.svc.Provision(dev, payload); err != nil {
					errs[w] = fmt.Errorf("provisioning device %d: %w", d, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			destroyAll(devices)
			return nil, err
		}
	}
	return devices, nil
}

// destroyAll tears down every loaded device enclave.
func destroyAll(devices []*glimmer.Device) {
	for _, d := range devices {
		if d != nil {
			d.Destroy()
		}
	}
}

// sealContribution runs the device's validate→blind→MAC pipeline for its round
// contribution and returns the encoded ticketed contribution.
func sealContribution(dev *glimmer.Device, seed int64, round uint64, device int) ([]byte, error) {
	tc, err := dev.ContributeTicketed(round, contribution(seed, round, device), nil)
	if err != nil {
		return nil, fmt.Errorf("device %d round %d: %w", device, round, err)
	}
	return glimmer.EncodeTicketedContribution(tc), nil
}
