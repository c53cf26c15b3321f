"""Two-mode dynamics: analytic checks, protocols, integrator quality."""
import math

import numpy as np
import pytest

from qmemsim.dynamics import (
    TWO_PI,
    CoupledModeSystem,
    GatePulse,
    Gauss,
    PulseSequence,
    Rect,
    RfPulse,
    SampledDrive,
    coupling_schedule,
    evolve,
    max_stable_dt,
    read_protocol,
    swap_duration,
    write_protocol,
)
from qmemsim.jjfet import Off, On

W0 = TWO_PI * 6.55e9


def rabi_system(g_hz, **kw):
    g = TWO_PI * g_hz
    kw.setdefault("kappa_ext", 0.0)
    return CoupledModeSystem(
        omega_a=W0, omega_b=W0, g_on=g, g_off=g, **kw,
    )


IDLE = PulseSequence()


class TestSwapDuration:
    def test_reference_value(self):
        assert swap_duration(TWO_PI * 300e6) == pytest.approx(1.0 / (4 * 300e6), rel=1e-12)
        assert swap_duration(TWO_PI * 300e6) == pytest.approx(0.8333e-9, rel=1e-3)

    def test_inverse_proportionality(self):
        assert swap_duration(2 * TWO_PI * 300e6) == pytest.approx(
            0.5 * swap_duration(TWO_PI * 300e6), rel=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            swap_duration(0.0)


class TestRabi:
    def test_decoupled_amplitude_constant(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0, kappa_ext=0.0, g_off=0.0,
        )
        traj = evolve(sys_, IDLE, (0.0, 50e-9), 0.05e-9, a0=1.0)
        assert np.max(np.abs(np.abs(traj.a) - 1.0)) < 1e-9

    def test_matches_analytic_exchange(self):
        sys_ = rabi_system(300e6)
        g = sys_.g_on
        dt = 0.5 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, IDLE, (0.0, 2.5 * swap_duration(g)), dt, a0=1.0)
        expect = np.sin(g * traj.times) ** 2
        assert np.max(np.abs(traj.e_b - expect)) < 1e-6

    def test_full_transfer_at_swap_time(self):
        sys_ = rabi_system(300e6)
        t_swap = swap_duration(sys_.g_on)
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, IDLE, (0.0, t_swap), dt, a0=1.0)
        assert traj.e_b[-1] >= 0.999

    def test_fourth_order_convergence(self):
        sys_ = rabi_system(300e6)
        g = sys_.g_on
        guard = max_stable_dt(sys_, IDLE)
        errs = []
        for dt in (guard / 2, guard / 4):
            traj = evolve(sys_, IDLE, (0.0, swap_duration(g)), dt, a0=1.0)
            errs.append(np.max(np.abs(traj.e_b - np.sin(g * traj.times) ** 2)))
        order = math.log2(errs[0] / errs[1])
        assert 3.5 <= order <= 4.5

    def test_energy_conservation_ten_thousand_steps(self):
        sys_ = rabi_system(50e6)
        dt = 0.04e-9
        traj = evolve(sys_, IDLE, (0.0, 1e4 * dt), dt, a0=1 / math.sqrt(2), b0=1j / math.sqrt(2))
        total = traj.e_a + traj.e_b
        assert np.max(np.abs(total - total[0])) < 1e-9

    def test_detuning_suppression(self):
        g = TWO_PI * 100e6
        delta = 10.0 * g
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0 + delta, kappa_ext=0.0, g_on=g, g_off=g,
        )
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, IDLE, (0.0, 30 * swap_duration(g)), dt, a0=1.0)
        bound = g**2 / (g**2 + (delta / 2) ** 2)
        assert np.max(traj.e_b) <= bound * 1.05


class TestIntegratorContract:
    def test_resolution_guard_enforced(self):
        sys_ = rabi_system(300e6)
        guard = max_stable_dt(sys_, IDLE)
        with pytest.raises(ValueError, match="resolution guard"):
            evolve(sys_, IDLE, (0.0, 1e-9), 2.0 * guard, a0=1.0)

    def test_span_must_cover_pulses(self):
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 1e6, g_on=TWO_PI * 100e6)
        rf = RfPulse(carrier=6.55e9, amplitude=1.0, start=0.0, duration=100e-9)
        with pytest.raises(ValueError, match="cover"):
            evolve(sys_, PulseSequence(rf=rf), (0.0, 50e-9), 1e-12)

    def test_linearity_is_exact_for_power_of_two_scaling(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0 + TWO_PI * 2e6, kappa_ext=TWO_PI * 1e6,
            kappa_int_a=TWO_PI * 0.1e6, gamma_b=TWO_PI * 0.05e6,
            g_on=TWO_PI * 20e6, g_off=1e3,
        )
        pulses = PulseSequence(
            rf=RfPulse(carrier=6.55e9, amplitude=1.0, start=0.0, duration=200e-9),
            gate_pulses=(GatePulse(start=200e-9, duration=12.5e-9, rise=1e-9),),
        )
        dt = 0.25 * max_stable_dt(sys_, pulses)
        base = evolve(sys_, pulses, (0.0, 250e-9), dt)
        scaled = evolve(
            sys_,
            PulseSequence(
                rf=RfPulse(carrier=6.55e9, amplitude=4.0, start=0.0, duration=200e-9),
                gate_pulses=pulses.gate_pulses,
            ),
            (0.0, 250e-9),
            dt,
        )
        assert np.array_equal(scaled.a, 4.0 * base.a)
        assert np.array_equal(scaled.b, 4.0 * base.b)
        assert np.array_equal(scaled.e_b, 16.0 * base.e_b)

    def test_determinism(self):
        sys_ = rabi_system(250e6, kappa_ext=TWO_PI * 1e6)
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        t1 = evolve(sys_, IDLE, (0.0, 10e-9), dt, a0=1.0)
        t2 = evolve(sys_, IDLE, (0.0, 10e-9), dt, a0=1.0)
        assert np.array_equal(t1.a, t2.a)
        assert np.array_equal(t1.b, t2.b)


class TestCouplingSchedule:
    def test_off_floor_outside_pulses(self):
        g = coupling_schedule((GatePulse(start=10e-9, duration=5e-9, rise=1e-9),), 1e9, 2e3)
        assert g(0.0) == 2e3
        assert g(50e-9) == 2e3

    def test_plateau_and_ramps(self):
        g = coupling_schedule((GatePulse(start=10e-9, duration=5e-9, rise=1e-9),), 1e9, 0.0)
        assert g(12e-9) == pytest.approx(1e9)
        assert g(10.5e-9) == pytest.approx(0.5e9)
        assert g(15.5e-9) == pytest.approx(0.5e9)

    def test_zero_rise_is_effectively_instant(self):
        g = coupling_schedule((GatePulse(start=10e-9, duration=5e-9, rise=0.0),), 1e9, 0.0)
        assert g(10e-9 - 1e-15) == 0.0
        assert g(10e-9 + 1e-15) == pytest.approx(1e9)

    def test_explicit_off_level_holds_floor(self):
        g = coupling_schedule(
            (GatePulse(start=10e-9, duration=5e-9, rise=0.0, level=Off(1000.0)),), 1e9, 2e3
        )
        assert g(12e-9) == pytest.approx(2e3)

    def test_overlapping_pulses_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PulseSequence(gate_pulses=(
                GatePulse(start=0.0, duration=10e-9),
                GatePulse(start=5e-9, duration=10e-9),
            ))


class TestWriteProtocol:
    def make_system(self, **kw):
        kw.setdefault("kappa_ext", TWO_PI * 3.3e6)
        return CoupledModeSystem(omega_a=W0, omega_b=W0, g_on=TWO_PI * 300e6, **kw)

    def test_lossless_rectangular_fidelity(self):
        sys_ = self.make_system()
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=3.0 / sys_.kappa_ext)
        result = write_protocol(sys_, rf, gate_on_level=On(220e-12))
        assert result.fidelity >= 0.99

    def test_gate_never_on_is_isolating(self):
        sys_ = self.make_system(g_off=1.3e4)
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=3.0 / sys_.kappa_ext)
        result = write_protocol(sys_, rf, engage_gate=False)
        assert result.fidelity <= 1e-4

    def test_storage_leakage_during_hold(self):
        # hold a stored excitation for 100 swap durations, gate OFF the
        # whole time: leakage is set by the residual coupling floor
        g_off = 1.3e4
        sys_ = self.make_system(g_off=g_off)
        t_hold = 100.0 * swap_duration(sys_.g_on)
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, PulseSequence(), (0.0, t_hold), dt, b0=1.0)
        # coherent leakage at most (g_off t)^2 plus the coupler-mediated
        # decay 4 g_off^2 / kappa * t
        bound = (g_off * t_hold) ** 2 + 4 * g_off**2 / sys_.kappa_ext * t_hold
        assert 1.0 - traj.e_b[-1] <= 5.0 * bound + 1e-9


class TestReadProtocol:
    def test_recovers_stored_energy(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 5e6, g_on=TWO_PI * 300e6
        )
        result = read_protocol(sys_, gate_on_level=On(220e-12))
        assert result.recovered_fraction >= 0.95

    def test_no_port_means_no_recovery(self):
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=0.0, g_on=TWO_PI * 300e6)
        result = read_protocol(sys_, emit_time=50e-9)
        assert result.recovered_fraction == pytest.approx(0.0, abs=1e-12)

    def test_write_then_read_round_trip(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 5e6, g_on=TWO_PI * 300e6
        )
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=3.0 / sys_.kappa_ext)
        written = write_protocol(sys_, rf, gate_on_level=On(220e-12))
        read = read_protocol(sys_, gate_on_level=On(220e-12))
        assert written.fidelity * read.recovered_fraction >= written.fidelity**2

    def test_emitted_waveform_reusable_as_drive(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 5e6, g_on=TWO_PI * 300e6
        )
        result = read_protocol(sys_)
        times, a_out = result.emitted
        drive = SampledDrive(carrier=W0 / TWO_PI, times=times, values=a_out)
        assert drive.baseband(times[3]) == pytest.approx(a_out[3])
        assert drive.baseband(times[-1] + 1.0) == 0.0


class TestEnvelopes:
    def test_rect_window(self):
        rf = RfPulse(carrier=6.5e9, amplitude=2.0, start=10e-9, duration=5e-9, envelope=Rect())
        assert rf.baseband(9e-9) == 0.0
        assert rf.baseband(12e-9) == 2.0
        assert rf.baseband(16e-9) == 0.0

    def test_gauss_peak_at_center(self):
        rf = RfPulse(carrier=6.5e9, amplitude=2.0, start=0.0, duration=100e-9,
                     envelope=Gauss(sigma=20e-9))
        assert rf.baseband(50e-9) == pytest.approx(2.0)
        assert rf.baseband(30e-9) == pytest.approx(2.0 * math.exp(-0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            RfPulse(carrier=-1.0, amplitude=1.0, start=0.0, duration=1e-9)
        with pytest.raises(ValueError):
            Gauss(sigma=0.0)
        with pytest.raises(ValueError):
            GatePulse(start=0.0, duration=0.0)


def test_system_validation():
    with pytest.raises(ValueError):
        CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=-1.0)
