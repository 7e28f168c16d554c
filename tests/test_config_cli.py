import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sagnacsim import (
    ConfigError,
    Eom,
    FaradayRotator,
    HalfWavePlate,
    Pbs,
    SceneConfig,
    half_wave_voltage,
    parse_config,
    parse_number,
    render_config,
)
from sagnacsim.cli import _COMMANDS, main

from golden import refresh as golden

ROOT = Path(__file__).resolve().parents[1]

IDEAL_TEXT = """\
# ideal scene
[crystal]
length_L = 20m
thickness_d = 1m
wavelength = 632.8n
n_e = 2.20
r33 = 30.8p

[loop]
[mz]

[circuit]
R = 20k
C = 50p
mosfet_on_R = 24
"""

# The defaults of every section that has no required key, spelled out. The
# exponent notation parses to the very floats of the dataclass defaults
# ('30n' would give 30 * 1e-9, which is not 30e-9).
DEFAULT_SECTIONS = """
[scan]
samples = 101
[sweep]
samples = 1001
[trace]
t_end = 30e-9
dt = 10e-12
gate_on = 2e-9
hold = 1e-6
input_angle_deg = 0
[recovery]
repetition_rate = 100e3
hold = 0
"""


class TestParseNumber:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("50p", 50e-12),
            ("632.8n", 632.8e-9),
            ("1u", 1e-6),
            ("20m", 0.02),
            ("20k", 20e3),
            ("2M", 2e6),
            ("2.20", 2.20),
            ("1e-3", 1e-3),
            ("-4.5", -4.5),
        ],
    )
    def test_suffixes(self, text, expected):
        assert parse_number(text) == pytest.approx(expected, rel=1e-12)

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_number("20m m")
        with pytest.raises(ValueError):
            parse_number("volts")
        for text in ("infk", "nanM", "1e308k"):
            with pytest.raises(ValueError, match="finite"):
                parse_number(text)

    @pytest.mark.parametrize(
        "suffix, exponent", [("p", -12), ("n", -9), ("u", -6), ("m", -3), ("k", 3), ("M", 6)]
    )
    @pytest.mark.parametrize("mantissa", [1, 3, 7, 30, 250, 999])
    def test_suffix_scales_exactly(self, mantissa, suffix, exponent):
        assert parse_number(f"{mantissa}{suffix}") == float(f"{mantissa}e{exponent}")

    def test_shipped_suffixed_values_are_exact(self):
        assert parse_number("30n") == 30e-9
        assert parse_number("632.8n") == 632.8e-9
        assert parse_number("30.8p") == 30.8e-12
        assert parse_number("1e3k") == 1e6


class TestParseConfig:
    def test_minimal_ideal_defaults(self):
        cfg = parse_config(IDEAL_TEXT)
        assert cfg.crystal.length_L == pytest.approx(0.02)
        assert cfg.loop.fr_angle_deg == 45.0
        assert cfg.loop.hwp_angle_deg == 22.5
        assert cfg.loop_layout().pbs == Pbs()
        assert cfg.mz.mode_overlap == 1.0
        assert cfg.circuit.C == pytest.approx(50e-12)
        assert cfg.circuit.supply_voltage is None
        layout = cfg.loop_layout()
        assert len(layout.cw_path) == 5
        circuit = cfg.drive_circuit()
        assert circuit.supply_voltage == pytest.approx(half_wave_voltage(cfg.crystal_spec()))

    def test_loop_section_maps_every_key(self):
        cfg = parse_config(IDEAL_TEXT.replace("[loop]\n", "[loop]\nfr_angle_deg = 40\nhwp_angle_deg = 20\n"))
        crystal = cfg.crystal_spec()
        layout = cfg.loop_layout()
        assert layout.cw_path == (
            HalfWavePlate(math.radians(20)),
            FaradayRotator(math.radians(40)),
            Eom(crystal, axis="V"),
            HalfWavePlate(math.radians(20)),
            FaradayRotator(math.radians(40)),
        )
        assert layout.pbs == Pbs()

    def test_malformed_number_names_line_and_key(self):
        with pytest.raises(ConfigError, match=r"line 2.*length_L"):
            parse_config("[crystal]\nlength_L = 20m m")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1.*unknown section"):
            parse_config("[lasers]\npower = 1")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"line 2.*unknown key 'color'"):
            parse_config("[crystal]\ncolor = red")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("[mz]\nbackground = 1\nbackground = 2")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("background = 1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[crystal\nlength_L = 20m", r"line 1: malformed section header"),
            ("[]", r"line 1: malformed section header"),
            ("[mz]\n[loop]\n[mz]", r"line 3: duplicate section \[mz\]"),
            ("[mz]\nbackground 1", r"line 2: expected 'key = value'"),
            ("[loss]\ntransmissions = ,", r"line 2: key 'transmissions' in \[loss\]: empty list"),
        ],
    )
    def test_malformed_lines(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match=r"\[crystal\].*missing"):
            parse_config("[crystal]\nlength_L = 20m")

    def test_transmissions_list(self):
        cfg = parse_config("[loss]\ntransmissions = 0.977, 0.977, 0.9")
        assert cfg.loss.transmissions == pytest.approx((0.977, 0.977, 0.9))

    def test_invariant_violations_surface(self):
        cfg = parse_config(
            "[crystal]\nlength_L = 1m\nthickness_d = 2m\nwavelength = 633n\nn_e = 2.2\nr33 = 30p"
        )
        with pytest.raises(ValueError, match="length"):
            cfg.crystal_spec()

    @pytest.mark.parametrize("section", ["scan", "sweep"])
    @pytest.mark.parametrize("value", ["2.7", "0", "-3", "1e10"])
    def test_samples_must_be_positive_integer(self, section, value):
        message = rf"line 2.*'samples' in \[{section}\].*positive integer"
        with pytest.raises(ConfigError, match=message):
            parse_config(f"[{section}]\nsamples = {value}")

    def test_omitted_sections_take_their_defaults(self):
        omitted = IDEAL_TEXT.replace("[loop]\n[mz]\n", "")
        assert parse_config(omitted) == parse_config(IDEAL_TEXT + DEFAULT_SECTIONS)

    def test_round_trip(self):
        text = IDEAL_TEXT + (
            "\n[scan]\nv_max = 200\nsamples = 101\n"
            "[sweep]\nsamples = 513\n"
            "[trace]\nt_end = 30n\ndt = 10p\n"
            "[recovery]\nrepetition_rate = 100k\n"
            "[loss]\ntransmissions = 0.794\n"
        )
        # The bare scene has no [crystal], [circuit] or [loss], sections
        # that render_config skips.
        for cfg in (parse_config(text), SceneConfig()):
            assert parse_config(render_config(cfg)) == cfg


class TestCli:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "scene.ini"
        path.write_text(IDEAL_TEXT + "\n[loss]\ntransmissions = 0.794\n")
        return path

    def run(self, command, config_path, tmp_path, *extra):
        out = tmp_path / f"{command}.csv"
        code = main([command, "--config", str(config_path), "--out", str(out), *extra])
        return code, out

    def test_device_matrix(self, config_path, tmp_path, capsys):
        code, out = self.run("device-matrix", config_path, tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("voltage_V,m00_re")
        assert len(lines) == 102  # header + default 101 samples
        assert "device-matrix" in capsys.readouterr().out

    def test_independence_scan(self, config_path, tmp_path, capsys):
        code, out = self.run("independence-scan", config_path, tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "voltage_V,phase_rad_unwrapped,infidelity,portA_power"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(data[:, 2] < 1e-10)
        assert "max_infidelity" in capsys.readouterr().out

    def test_table1(self, config_path, tmp_path, capsys):
        code, out = self.run("table1", config_path, tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pol_deg,v_half_V,visibility,contrast_ratio,contrast_db"
        assert len(lines) == 4
        assert "table1" in capsys.readouterr().out

    def test_transient(self, config_path, tmp_path, capsys):
        code, out = self.run("transient", config_path, tmp_path)
        assert code == 0
        assert out.read_text().splitlines()[0] == "t_s,v_V,intensity"
        assert "optical_10_90" in capsys.readouterr().out

    def test_recovery_summary(self, config_path, tmp_path, capsys):
        code, _ = self.run("recovery", config_path, tmp_path)
        assert code == 0
        assert "recovery_fraction=0.99995" in capsys.readouterr().out

    def test_loss(self, config_path, tmp_path, capsys):
        code, out = self.run("loss", config_path, tmp_path)
        assert code == 0
        assert "insertion_loss_db=1.00" in capsys.readouterr().out

    def test_lossless_element_reads_zero_db(self, tmp_path):
        path = tmp_path / "lossless.ini"
        path.write_text(IDEAL_TEXT + "\n[loss]\ntransmissions = 1, 0.5\n")
        code, out = self.run("loss", path, tmp_path)
        assert code == 0
        assert out.read_text().splitlines()[1] == "0,1,0"

    def test_unknown_command_usage_error(self, config_path, tmp_path, capsys):
        code = main(["frobnicate", "--config", str(config_path), "--out", "x.csv"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["table1", "--config", str(tmp_path / "nope.ini"), "--out", "x.csv"])
        assert code == 2
        assert "config" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[crystal]\nlength_L = 20m m\n")
        code = main(["device-matrix", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("device-matrix", "--sweep-max", "nan"),
            ("independence-scan", "--sweep-max", "inf"),
            ("transient", "--dt", "nan"),
            ("transient", "--t-end", "inf"),
            ("transient", "--dt", "abc"),
        ],
    )
    def test_non_finite_flag_usage_error(self, config_path, tmp_path, capsys, command, flag, value):
        # Flags are parsed by parse_number, so they report its messages.
        code, out = self.run(command, config_path, tmp_path, flag, value)
        assert code == 1
        message = "malformed number" if value == "abc" else "number must be finite"
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_take_si_suffixes(self, config_path, tmp_path, capsys):
        # Flags parse like config values: '5p' is exactly 5e-12.
        outputs = []
        for flags in (["--t-end", "35e-9", "--dt", "5e-12"], ["--t-end", "35n", "--dt", "5p"]):
            code, out = self.run("transient", config_path, tmp_path, *flags)
            assert code == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("transient", ["--t-end", "-1"], "t_end must be finite and positive"),
            ("transient", ["--t-end", "1e-12"], "no edge found"),  # a single sample
            # 1e17 samples exceed the 10**8-sample cap in simulate, which
            # refuses the grid before anything is allocated.
            ("transient", ["--t-end", "1000", "--dt", "1e-14"], "allocate"),
            ("independence-scan", ["--sweep-max", "1e4"], "half-wave voltage"),
            # 150 V is 1.55 V_half: less than one fringe period.
            ("table1", ["--sweep-max", "150"], "need one fringe period"),
        ],
    )
    def test_runtime_error_exit_3(self, config_path, tmp_path, capsys, command, extra, message):
        code, _ = self.run(command, config_path, tmp_path, *extra)
        assert code == 3
        assert message in capsys.readouterr().err

    def test_transient_grid_cap_exit_3(self, config_path, tmp_path, capsys):
        # 1e11 samples (800 GB) are refused before numpy is asked for them.
        with mock.patch.object(np, "empty", side_effect=AssertionError("grid allocated")):
            code, out = self.run("transient", config_path, tmp_path, "--t-end", "1", "--dt", "1e-11")
        assert code == 3
        assert "allocate" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_summary_writes_no_csv(self, tmp_path, capsys):
        # The table keeps the rates whose period exceeds the 500 ns hold; the
        # summary's 3 MHz does not fit it, so the command fails after its table.
        bad = tmp_path / "bad.ini"
        bad.write_text(IDEAL_TEXT + "\n[recovery]\nrepetition_rate = 3M\nhold = 500n\n")
        out = tmp_path / "o.csv"
        assert main(["recovery", "--config", str(bad), "--out", str(out)]) == 3
        assert "must exceed the hold duration" in capsys.readouterr().err
        assert not out.exists()

    def test_recovery_table_keeps_the_rates_the_hold_fits(self, tmp_path, capsys):
        # A 1 us hold, as demo 04's, leaves out the table's 1 MHz rate, whose
        # period equals the hold; the configured 100 kHz still fits it.
        scene = tmp_path / "scene.ini"
        scene.write_text(IDEAL_TEXT + "\n[recovery]\nrepetition_rate = 100k\nhold = 1u\n")
        out = tmp_path / "o.csv"
        assert main(["recovery", "--config", str(scene), "--out", str(out)]) == 0
        assert "recovery_fraction=" in capsys.readouterr().out
        rates = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        assert len(rates) == 60 and rates.max() < 1e6

    def test_recovery_table_spans_the_configured_rate(self, tmp_path, capsys):
        # At 1 kHz a 200 us hold fits every rate up to 5 kHz: a table of the
        # decade either side of 1 kHz keeps 51 of its 61 rates, where a fixed
        # 10 kHz - 1 MHz table would keep none.
        scene = tmp_path / "scene.ini"
        scene.write_text(IDEAL_TEXT + "\n[recovery]\nrepetition_rate = 1k\nhold = 200u\n")
        out = tmp_path / "o.csv"
        assert main(["recovery", "--config", str(scene), "--out", str(out)]) == 0
        assert "recovery_fraction=" in capsys.readouterr().out
        rates = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[:, 0]
        assert len(rates) == 51
        assert rates.min() == pytest.approx(100.0) and rates.max() < 5e3

    @pytest.mark.parametrize(
        "line, key",
        [
            # The device is port B; the key that chose a port is gone.
            ("output_port = B", "unknown key 'output_port' in [loop]"),
            # Both sides share one plate/rotator pair; the keys that
            # overrode them are gone.
            ("fr2_angle_deg = 44", "unknown key 'fr2_angle_deg' in [loop]"),
            ("hwp2_angle_deg = 21", "unknown key 'hwp2_angle_deg' in [loop]"),
            ("eom_axis = V", "unknown key 'eom_axis' in [loop]"),
            # [loop] holds the two pair angles; the orientation, the
            # residual modulator phase and the splitter's extinction are
            # arguments of build_default_loop alone.
            ("rotated_beam = X", "unknown key 'rotated_beam' in [loop]"),
            ("eom_residual_phase_per_volt = 0.002",
             "unknown key 'eom_residual_phase_per_volt' in [loop]"),
            ("pbs_extinction_t = 0.1", "unknown key 'pbs_extinction_t' in [loop]"),
            ("pbs_extinction_r = 0.05", "unknown key 'pbs_extinction_r' in [loop]"),
        ],
    )
    def test_bad_loop_string_exit_2(self, tmp_path, capsys, line, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(IDEAL_TEXT.replace("[loop]\n", f"[loop]\n{line}\n"))
        code = main(["device-matrix", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "[loop]" in err and key in err
        assert not (tmp_path / "o.csv").exists()

    # Each value that a section's library object refuses while the scene
    # builds it: the case's name, the commands that reach it, the section, the
    # line of fitted.ini it replaces, the bad text and the refusal's message.
    BUILD_REFUSALS = [
        ("mode_overlap", ("table1", "transient"), "mz",
         "mode_overlap = 0.954", "mode_overlap = 2", "mode_overlap must lie in [0, 1]"),
        ("arm_imbalance", ("table1", "transient"), "mz",
         "[mz]\n", "[mz]\narm_imbalance = -1\n", "arm_imbalance must be positive"),
        ("background", ("table1", "transient"), "mz",
         "[mz]\n", "[mz]\nbackground = -0.5\n", "background must be finite and non-negative"),
        # recovery reaches the crystal through the driver's default supply.
        ("thickness_d", ("table1", "transient", "recovery"), "crystal",
         "thickness_d = 1m", "thickness_d = 30m", "crystal length (0.02) must exceed thickness (0.03)"),
        ("n_e", ("device-matrix",), "crystal",
         "n_e = 2.20", "n_e = 1e-200", "half-wave voltage must be finite and positive"),
        ("R", ("transient", "recovery"), "circuit",
         "R = 20k", "R = -5", "DriveCircuit.recharge_r must be finite and positive"),
        ("gate_rise_time", ("transient",), "circuit",
         "gate_rise_time = 400p", "gate_rise_time = 1e-300", "gate_rise_time = 1e-300 s is too short"),
        # V_half is about 1.52e308 V, the default supply: supply * R_on
        # overflows. The supply defaults to V_half, so the driver names it.
        ("on-state voltage", ("transient", "recovery"), "circuit",
         "wavelength = 632.8n", "wavelength = 1e300", "on-state voltage"),
        # R * C overflows: without the check, recovery writes 61 rows of 0.
        ("time constants", ("recovery",), "circuit",
         "R = 20k\nC = 50p\nmosfet_on_R = 23.5\ngate_rise_time = 400p",
         "R = 1e302\nC = 1e10\nmosfet_on_R = 1e290\ngate_rise_time = 1e-290",
         "time constants recharge_r * total_c"),
        ("gate_on", ("transient",), "trace", "gate_on = 2n", "gate_on = -1", "on_times must be non-negative"),
        *(
            (f"transmissions = {value}", ("loss",), "loss", "transmissions = 0.977, 0.977",
             f"transmissions = {value}", "transmission must lie in (0, 1]")
            for value in ("0", "-0.5", "0.5, 0")
        ),
    ]

    @pytest.mark.parametrize(
        "command, section, line, bad_line, message",
        [
            pytest.param(command, section, line, bad_line, message, id=f"{section}-{name}-{command}")
            for name, commands, section, line, bad_line, message in BUILD_REFUSALS
            for command in commands
        ],
    )
    def test_build_time_refusal_exit_2(self, tmp_path, capsys, command, section, line, bad_line, message):
        # A value refused while the scene builds its objects is a
        # configuration error: it exits 2 and the message names its section.
        text = (ROOT / "demos/configs/fitted.ini").read_text()
        assert line in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(line, bad_line, 1))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}]: ")
        assert message in err
        assert not out.exists()

    def test_fractional_samples_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(IDEAL_TEXT + "\n[scan]\nsamples = 2.7\n")
        out = tmp_path / "o.csv"
        assert main(["device-matrix", "--config", str(bad), "--out", str(out)]) == 2
        assert "samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, bad_line, message, command",
        [
            # The table's upper decade bound 1e309 Hz overflows: without the
            # check, its NaN rates fit no hold and the table keeps one row.
            ("repetition_rate = 100k", "repetition_rate = 1e308",
             "repetition_rate = 1e+308 Hz", "recovery"),
        ],
        ids=["recovery-repetition_rate overflow"],
    )
    def test_bad_driver_value_exit_3_without_warnings(
        self, tmp_path, capsys, line, bad_line, message, command
    ):
        text = (ROOT / "demos/configs/fitted.ini").read_text()
        assert line in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(line, bad_line))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("device-matrix", "default sweep ceiling 2 * V_half overflows"),
            ("independence-scan", "default sweep ceiling 2 * V_half overflows"),
            ("table1", "default sweep ceiling 2 * V_half overflows"),
        ],
    )
    def test_huge_half_wave_voltage_exit_3_without_warnings(self, tmp_path, capsys, command, message):
        # V_half is about 1.52e308 V: finite, but twice it is not.
        text = (ROOT / "demos/configs/fitted.ini").read_text()
        assert "wavelength = 632.8n" in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("wavelength = 632.8n", "wavelength = 1e300"))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, section",
        [
            ("device-matrix", "[loop]\n", "[crystal]"),
            ("table1", "[mz]\n", "[crystal]"),
            # The supply defaults to V_half, which needs the crystal.
            ("recovery", "[circuit]\nR = 20k\nC = 50p\nmosfet_on_R = 24\n", "[crystal]"),
            ("transient", IDEAL_TEXT.split("[circuit]")[0], "[circuit]"),
            ("recovery", IDEAL_TEXT.split("[circuit]")[0], "[circuit]"),
            ("loss", IDEAL_TEXT, "[loss]"),
        ],
    )
    def test_missing_section_exit_2(self, tmp_path, capsys, command, text, section):
        cfg = tmp_path / "partial.ini"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: missing required section {section}\n"
        assert not out.exists()

    def test_domain_error_exit_3(self, config_path, tmp_path, capsys):
        code, _ = self.run("table1", config_path, tmp_path, "--sweep-max", "10.0")
        assert code == 3
        assert "sweep range" in capsys.readouterr().err

    def test_omitted_sections_give_the_same_outputs(self, tmp_path, capsys):
        loss = "\n[loss]\ntransmissions = 0.794\n"
        texts = (IDEAL_TEXT.replace("[loop]\n[mz]\n", "") + loss, IDEAL_TEXT + DEFAULT_SECTIONS + loss)
        for command in _COMMANDS:
            outputs = []
            for k, text in enumerate(texts):
                path = tmp_path / f"scene{k}.ini"
                path.write_text(text)
                code, out = self.run(command, path, tmp_path)
                assert code == 0, command
                outputs.append((out.read_bytes(), capsys.readouterr().out))
            assert outputs[0] == outputs[1], command

    @pytest.mark.parametrize(
        "command, section, flags, column, step, last",
        [
            ("device-matrix", "[scan]\nv_max = 50\n", ["--sweep-max", "120"], 0, 1.2, 120.0),
            ("transient", "[trace]\ndt = 10p\n", ["--dt", "5e-12", "--t-end", "20e-9"], 0, 5e-12, 20e-9),
        ],
    )
    def test_flags_override_config(self, tmp_path, command, section, flags, column, step, last):
        path = tmp_path / "scene.ini"
        path.write_text(IDEAL_TEXT + section)
        code, out = self.run(command, path, tmp_path, *flags)
        assert code == 0
        values = np.loadtxt(out, delimiter=",", skiprows=1)[:, column]
        assert len(values) == round(last / step) + 1
        assert np.diff(values) == pytest.approx(step, rel=1e-6)
        assert values[-1] == pytest.approx(last, rel=1e-12)

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["independence-scan", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["independence-scan", "--config", str(config_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_cli_outputs_match_the_golden_manifest():
    # Every CLI run of the shipped configs, byte for byte as committed in
    # tests/golden/manifest.json (the demos are checked in test_demo_runs).
    manifest = golden.load()
    found = golden.differences(manifest["cli"], golden.cli_entries())
    assert not found, "\n".join([f"written on {manifest['stamp']}", *found])


def test_cli_commands_do_not_import_scipy(tmp_path):
    # scipy is a test dependency only; importing it would cost every cold
    # command far more than its own work. numpy.ma, which np.median loads,
    # would cost table1 about 9 ms. Beyond that, the commands run on the
    # standard library and numpy alone; the modules loaded at start-up (site
    # may preload installed packages) are left out of that count.
    code = (
        "import sys\n"
        "start_up = set(sys.modules)\n"
        "from sagnacsim.cli import main\n"
        f"for command in {_COMMANDS!r}:\n"
        f"    assert main([command, '--config', {str(ROOT / 'demos/configs/fitted.ini')!r},"
        f" '--out', {str(tmp_path / 'out.csv')!r}]) == 0, command\n"
        "assert 'scipy' not in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - start_up}\n"
        "foreign = tops - set(sys.stdlib_module_names) - {'numpy', 'sagnacsim'}\n"
        "assert not foreign, sorted(foreign)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_process_exit_codes(tmp_path):
    # The console script exits with main()'s code: 0 on success, 3 for a
    # domain error and 2 for a configuration problem, writing no CSV unless
    # the command succeeded.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    configs = ROOT / "demos" / "configs"
    cases = [
        (["loss", "--config", str(configs / "ideal.ini")], 0),
        (["table1", "--config", str(configs / "fitted.ini"), "--sweep-max", "150"], 3),
        (["loss", "--config", str(tmp_path / "missing.ini")], 2),
    ]
    for args, code in cases:
        out = tmp_path / f"{args[0]}_{code}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "sagnacsim.cli", *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == code, (args, result.stderr)
        assert out.exists() == (code == 0), args
