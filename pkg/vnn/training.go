// Training and decoding re-exports: the remaining pieces the examples
// needed internal imports for. Aliases, not wrappers — values flow
// between the public API and the engine without conversion.

package vnn

import (
	"math/rand"

	"repro/internal/gmm"
	"repro/internal/train"
)

type (
	// Trainer runs mini-batch gradient descent over a network (see
	// internal/train: configure Net, Loss, Opt, BatchSize, Rng).
	Trainer = train.Trainer
	// Loss scores a network output against a label and provides the
	// output gradient.
	Loss = train.Loss
	// MDN is the mixture-density-network negative log-likelihood loss of
	// the paper's predictor (K mixture components).
	MDN = train.MDN
	// HintPenalty wraps a base loss with the property penalty of hints
	// training.
	HintPenalty = train.HintPenalty
	// Optimizer updates parameters from gradients.
	Optimizer = train.Optimizer
	// Mixture is the decoded Gaussian-mixture action distribution of the
	// predictor's head.
	Mixture = gmm.Mixture
	// MixtureComponent is one component of a Mixture.
	MixtureComponent = gmm.Component
)

// Action-dimension indices of the predictor's two modeled quantities.
const (
	// GMMLatVel indexes the lateral-velocity dimension of a Mixture.
	GMMLatVel = gmm.LatVel
	// GMMLongAcc indexes the longitudinal-acceleration dimension.
	GMMLongAcc = gmm.LongAcc
)

// NewAdam returns an Adam optimizer with the given learning rate.
func NewAdam(lr float64) Optimizer { return train.NewAdam(lr) }

// SplitData partitions data into train/validation sets (valFrac of the
// shuffled data becomes validation); callers own their randomness.
func SplitData(data []Sample, valFrac float64, rng *rand.Rand) (trainSet, valSet []Sample) {
	return train.Split(data, valFrac, rng)
}

// DecodeGMM decodes raw network outputs into an action distribution.
func DecodeGMM(raw []float64) Mixture { return gmm.Decode(raw) }
