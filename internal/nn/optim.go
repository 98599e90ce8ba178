package nn

import (
	"math"

	"github.com/neuro-c/neuroc/internal/tensor"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	Step(params []*Param)
	Name() string
}

// LRSetter is implemented by optimizers whose learning rate can be
// rescheduled mid-training (used by Fit's cosine decay).
type LRSetter interface {
	SetLR(lr float64)
	BaseLR() float64
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param][]float32
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param][]float32)}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// SetLR implements LRSetter.
func (s *SGD) SetLR(lr float64) { s.LR = lr }

// BaseLR implements LRSetter.
func (s *SGD) BaseLR() float64 { return s.LR }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v := s.velocity[p]
		if v == nil && s.Momentum != 0 {
			v = make([]float32, len(p.Val.Data))
			s.velocity[p] = v
		}
		lr := float32(s.LR)
		mom := float32(s.Momentum)
		wd := float32(s.WeightDecay)
		for i := range p.Val.Data {
			g := p.Grad.Data[i]
			if wd != 0 {
				g += wd * p.Val.Data[i]
			}
			if mom != 0 {
				v[i] = mom*v[i] + g
				g = v[i]
			}
			p.Val.Data[i] -= lr * g
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t int
	m map[*Param][]float32
	v map[*Param][]float32
}

// NewAdam returns an Adam optimizer with the standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float32),
		v: make(map[*Param][]float32),
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// SetLR implements LRSetter.
func (a *Adam) SetLR(lr float64) { a.LR = lr }

// BaseLR implements LRSetter.
func (a *Adam) BaseLR() float64 { return a.LR }

// adamMinPerWorker is the parameter size from which Adam.Step splits one
// parameter's update across workers; smaller ones are not worth a
// goroutine.
const adamMinPerWorker = 1 << 14

// Step implements Optimizer. The update is elementwise, so splitting a
// large parameter across workers changes no bit.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	stepSize := float32(a.LR * math.Sqrt(c2) / c1)
	b1 := float32(a.Beta1)
	b2 := float32(a.Beta2)
	wd := float32(a.WeightDecay)
	eps := float32(a.Eps)
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float32, len(p.Val.Data))
			v = make([]float32, len(p.Val.Data))
			a.m[p] = m
			a.v[p] = v
		}
		val, grad := p.Val.Data, p.Grad.Data
		tensor.ParallelRows(len(val), adamMinPerWorker, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				g := grad[i]
				if wd != 0 {
					g += wd * val[i]
				}
				m[i] = b1*m[i] + (1-b1)*g
				v[i] = b2*v[i] + (1-b2)*g*g
				val[i] -= stepSize * m[i] / (float32(math.Sqrt(float64(v[i]))) + eps)
			}
		})
	}
}
