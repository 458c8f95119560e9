"""Vectorised leaky integrate-and-fire (LIF) neuron population (paper §III.B).

Between spikes the membrane potential of neuron i obeys

    C dV_i/dt = -V_i / R + sum_alpha W_{i alpha} s_alpha,

integrated with forward Euler at time step ``dt``.  When ``V_i`` crosses the
threshold the neuron emits a spike and the potential resets.  The population
is simulated as a whole: one matrix-vector product per time step, no Python
loop over neurons, following the vectorisation guidance for HPC Python.

Two readouts matter for the MAXCUT circuits:

* the **spike raster** (LIF-GW maps spiking/silent neurons to the two sides
  of the cut), and
* the **membrane potentials** (whose covariance is the engineered Gaussian
  process; the LIF-TR plasticity rule consumes them, and a sign readout of
  the membranes provides an equivalent rounding signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.validation import ValidationError, check_positive

__all__ = ["LIFParameters", "LIFState", "LIFPopulation"]


@dataclass(frozen=True)
class LIFParameters:
    """Electrical parameters of a LIF neuron population.

    Attributes
    ----------
    capacitance:
        Membrane capacitance ``C`` (arbitrary units).
    resistance:
        Leak resistance ``R``.
    threshold:
        Spiking threshold on the membrane potential.
    reset_potential:
        Potential the membrane is reset to after a spike.
    dt:
        Euler integration time step.
    input_offset:
        Constant subtracted from every device state before weighting.  With
        fair-coin devices, ``input_offset = 0.5`` centres the input so the
        membrane fluctuates symmetrically around zero, which makes the sign /
        threshold readout an unbiased rounding operation.
    """

    capacitance: float = 1.0
    resistance: float = 10.0
    threshold: float = 1.0
    reset_potential: float = 0.0
    dt: float = 0.1
    input_offset: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.capacitance, "capacitance")
        check_positive(self.resistance, "resistance")
        check_positive(self.dt, "dt")
        if not np.isfinite(self.threshold):
            raise ValidationError("threshold must be finite")
        if not np.isfinite(self.reset_potential):
            raise ValidationError("reset_potential must be finite")
        tau = self.resistance * self.capacitance
        if self.dt >= 2.0 * tau:
            raise ValidationError(
                f"dt={self.dt} is too large for membrane time constant tau={tau}; "
                "forward Euler requires dt < 2*R*C for stability"
            )

    @property
    def time_constant(self) -> float:
        """Membrane time constant ``tau = R C``."""
        return self.resistance * self.capacitance

    @property
    def leak_factor(self) -> float:
        """Per-step decay multiplier ``1 - dt / (R C)`` of the Euler scheme."""
        return 1.0 - self.dt / self.time_constant


@dataclass
class LIFState:
    """Mutable state of a LIF population: membrane potentials and last spikes."""

    potentials: np.ndarray
    spikes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def n_neurons(self) -> int:
        return int(self.potentials.shape[0])


class LIFPopulation:
    """A population of LIF neurons driven by a weighted pool of binary devices.

    Parameters
    ----------
    weights:
        ``(n_neurons, n_devices)`` synaptic weight matrix from devices to
        neurons (``W`` in the paper).
    params:
        Electrical parameters shared by all neurons.
    """

    def __init__(self, weights: np.ndarray, params: Optional[LIFParameters] = None) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValidationError(f"weights must be 2-D, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite")
        self._weights = weights
        self.params = params or LIFParameters()
        self._state = LIFState(
            potentials=np.zeros(weights.shape[0], dtype=np.float64),
            spikes=np.zeros(weights.shape[0], dtype=bool),
        )

    # ------------------------------------------------------------------
    @property
    def n_neurons(self) -> int:
        return int(self._weights.shape[0])

    @property
    def n_devices(self) -> int:
        return int(self._weights.shape[1])

    @property
    def weights(self) -> np.ndarray:
        """Copy of the device-to-neuron weight matrix."""
        return self._weights.copy()

    @property
    def state(self) -> LIFState:
        """Current mutable state (potentials and last-step spike mask)."""
        return self._state

    def reset(self) -> None:
        """Reset all membrane potentials and spike flags to zero."""
        self._state.potentials[:] = 0.0
        self._state.spikes[:] = False

    # ------------------------------------------------------------------
    def theoretical_covariance(self, device_covariance: Optional[np.ndarray] = None) -> np.ndarray:
        """Stationary membrane covariance ``(R/C) W Sigma_s W^T`` (paper §III.C).

        Parameters
        ----------
        device_covariance:
            Covariance matrix of the device states; defaults to the
            independent fair-coin value ``0.25 I``.
        """
        r = self.n_devices
        if device_covariance is None:
            device_covariance = 0.25 * np.eye(r)
        device_covariance = np.asarray(device_covariance, dtype=np.float64)
        if device_covariance.shape != (r, r):
            raise ValidationError(
                f"device_covariance must have shape ({r}, {r}), got {device_covariance.shape}"
            )
        scale = self.params.resistance / self.params.capacitance
        return scale * (self._weights @ device_covariance @ self._weights.T)

    # ------------------------------------------------------------------
    def step(self, device_states: np.ndarray) -> np.ndarray:
        """Advance the population one Euler step given the device states.

        Parameters
        ----------
        device_states:
            Length-``n_devices`` array of 0/1 device states for this step.

        Returns
        -------
        numpy.ndarray
            Boolean spike mask for this step.
        """
        device_states = np.asarray(device_states)
        if device_states.shape != (self.n_devices,):
            raise ValidationError(
                f"device_states must have shape ({self.n_devices},), got {device_states.shape}"
            )
        spikes, _ = self._integrate(device_states.astype(np.float64)[None, :])
        self._state.spikes = spikes[0]
        return spikes[0]

    def run(
        self,
        device_states: np.ndarray,
        record_potentials: bool = False,
        burn_in: int = 0,
    ) -> dict:
        """Run the population over a block of device samples.

        Parameters
        ----------
        device_states:
            ``(n_steps, n_devices)`` array of 0/1 device states.
        record_potentials:
            If True, the returned dictionary includes the ``(n_steps, n_neurons)``
            membrane trajectory (memory scales with both dimensions).
        burn_in:
            Number of leading steps whose spikes/potentials are integrated but
            not recorded, letting the membrane reach stationarity first.

        Returns
        -------
        dict with keys ``"spikes"`` (bool array, recorded steps x neurons) and,
        when requested, ``"potentials"``.
        """
        drive = self._check_block(device_states, burn_in).astype(np.float64)
        # Burn-in head and recorded tail are separate drive products; the
        # batched engine's spike path splits its products the same way.
        if burn_in:
            self._integrate(drive[:burn_in], record_spikes=False)
        spikes, trajectory = self._integrate(
            drive[burn_in:], record_potentials=record_potentials
        )
        if spikes.shape[0]:
            self._state.spikes = spikes[-1]
        result: dict = {"spikes": spikes}
        if record_potentials:
            result["potentials"] = trajectory
        return result

    def run_subthreshold(
        self, device_states: np.ndarray, burn_in: int = 0
    ) -> np.ndarray:
        """Integrate with spiking disabled and return the membrane trajectory.

        Used by the LIF-TR circuit and the covariance validation tests: the
        plasticity rule consumes the free (non-resetting) membrane potentials,
        whose covariance is the engineered quantity of §III.C.
        """
        drive = self._check_block(device_states, burn_in).astype(np.float64)
        _, trajectory = self._integrate(
            drive, skip=burn_in, spiking=False,
            record_spikes=False, record_potentials=True,
        )
        return trajectory

    # ------------------------------------------------------------------
    def _check_block(self, device_states: np.ndarray, burn_in: int) -> np.ndarray:
        device_states = np.asarray(device_states)
        if device_states.ndim != 2 or device_states.shape[1] != self.n_devices:
            raise ValidationError(
                f"device_states must have shape (n_steps, {self.n_devices}), "
                f"got {device_states.shape}"
            )
        if burn_in < 0:
            raise ValidationError(f"burn_in must be non-negative, got {burn_in}")
        return device_states

    def _drive_current(self, device_block: np.ndarray) -> np.ndarray:
        """Synaptic current for a block of device states: ``(s - offset) W^T``."""
        centred = device_block - self.params.input_offset
        return centred @ self._weights.T

    def _integrate(
        self,
        device_block: np.ndarray,
        skip: int = 0,
        spiking: bool = True,
        record_spikes: bool = True,
        record_potentials: bool = False,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The Euler loop: advance the state over *device_block* (one drive product).

        The first *skip* steps are integrated but not recorded.  With
        ``spiking=False`` threshold crossings neither fire nor reset.
        Returns the recorded ``(spikes, potentials)`` rows (``potentials``
        is ``None`` unless requested).
        """
        params = self.params
        leak = params.leak_factor
        gain = params.dt / params.capacitance
        currents = self._drive_current(device_block)
        n_steps = device_block.shape[0]
        recorded = max(0, n_steps - skip)
        spikes = np.zeros((recorded if record_spikes else 0, self.n_neurons), dtype=bool)
        trajectory = np.zeros((recorded, self.n_neurons)) if record_potentials else None
        potentials = self._state.potentials.copy()
        for t in range(n_steps):
            potentials = leak * potentials + gain * currents[t]
            if record_potentials and t >= skip:
                trajectory[t - skip] = potentials
            if spiking:
                fired = potentials >= params.threshold
                if record_spikes and t >= skip:
                    spikes[t - skip] = fired
                if np.any(fired):
                    potentials[fired] = params.reset_potential
        self._state.potentials = potentials
        return spikes, trajectory

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"LIFPopulation(n_neurons={self.n_neurons}, n_devices={self.n_devices}, "
            f"tau={self.params.time_constant:g})"
        )
