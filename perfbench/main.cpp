// End-to-end benchmark harness for the cbs simulator.
//
//   cbs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (one closed loop each: the next operation starts when the
// previous one returns, on the calling thread):
//   resonant_ref    Figure-5 oscillator on the reference signal path
//                   (CBS_FUSE off); one op = one counter gate of closed loop.
//   resonant_fused  the same loop on the compiled SIMD tier (CBS_FUSE on).
//   yield_mc        process Monte-Carlo yield study through the surrogate
//                   tier; one op = 65536 trials under a fresh root seed.
//   static_assay    Figure-4 multiplexed static chain running the standard
//                   baseline/association/dissociation protocol; one op =
//                   one binding step plus a read of all four channels.
//
// Every op's output is checked against the physics model it simulates
// (resonance, chain responsivity, yield statistics); a failing check counts
// the op as failed. The run is cut into blocks; each block begins with a
// fresh set-up (system construction, offset calibration, oscillator
// start-up, surrogate fit), timed on its own.
//
// --trace 0 prints end-to-end metrics: op_ms, the median op time of the
// least-disturbed block, and setup_s, the median set-up time. --trace 1
// turns on the library's obs metrics, wraps every call the harness makes
// into a library layer in a span, and prints per-layer metrics instead:
// self-time shares per layer (they sum to 100 %), the share spent in the
// sampled per-sample kernels, and per-op work counts read from the
// library's own counters.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bio/assay.hpp"
#include "bio/functionalization.hpp"
#include "bio/species.hpp"
#include "circ/fuse.hpp"
#include "core/resonant_sensor.hpp"
#include "core/static_sensor.hpp"
#include "fab/montecarlo.hpp"
#include "mech/geometry.hpp"
#include "obs/metrics.hpp"
#include "surrogate/cache.hpp"
#include "surrogate/tier.hpp"
#include "util/random.hpp"

namespace {

using namespace cbs;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
// --- Layer spans -------------------------------------------------------------

/// Library layers the harness calls into; `harness` is the benchmark's own
/// work (bookkeeping and output checks).
enum Layer { harness, core_layer, mech_layer, bio_layer, fab_layer, layer_count };
constexpr std::array<const char*, layer_count> kLayerNames = {"bench", "core", "mech", "bio",
                                                              "fab"};

/// Self time per layer. Spans nest; a span's self time is its duration
/// minus its children's. Disabled (no clock reads) unless tracing.
class LayerClock {
public:
    explicit LayerClock(bool on) : on_(on) {}

    class Span {
    public:
        Span(LayerClock& c, Layer l) : c_(c) {
            if (c_.on_) c_.enter(l);
        }
        ~Span() {
            if (c_.on_) c_.leave();
        }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

    private:
        LayerClock& c_;
    };

    [[nodiscard]] double self_seconds(Layer l) const { return self_[l]; }

private:
    struct Frame {
        Layer layer;
        Clock::time_point start;
        double children = 0.0;
    };
    void enter(Layer l) { stack_.push_back(Frame{l, Clock::now(), 0.0}); }
    void leave() {
        const Frame f = stack_.back();
        stack_.pop_back();
        const double d = seconds_since(f.start);
        self_[f.layer] += d - f.children;
        if (!stack_.empty()) stack_.back().children += d;
    }

    bool on_;
    std::vector<Frame> stack_;
    std::array<double, layer_count> self_{};
};

// --- Workloads ---------------------------------------------------------------

struct OpResult {
    bool ok = true;
    double items = 0.0;  ///< simulated items: loop ticks, chain samples or trials
};

class Workload {
public:
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    Workload(Workload&&) = delete;
    Workload& operator=(Workload&&) = delete;
    virtual ~Workload() = default;
    /// One complete bring-up; a repeat discards the previous instance.
    virtual void setup() = 0;
    virtual OpResult run_op(LayerClock& clock) = 0;
    /// Whole-run checks after the timed loop (not timed).
    virtual bool verify() = 0;
};

/// Figure-5 closed loop. The seed picks the preset analyte coverage and the
/// noise streams; each op runs one counter gate and checks every completed
/// gate against the loaded resonance the mechanics predict.
class ResonantWorkload final : public Workload {
public:
    ResonantWorkload(std::uint64_t seed, circ::FuseMode mode) : mode_(mode) {
        Rng inputs(seed);
        theta_ = inputs.uniform(0.1, 0.9);
        sensor_seed_ = inputs.raw_word();
        cfg_.counter_gate = Time{0.02};
    }

    void setup() override {
        circ::set_fuse_mode(mode_);
        sys_ = std::make_unique<core::ResonantCantileverSystem>(cfg_, Rng(sensor_seed_));
        sys_->set_coverage(theta_);
        // Oscillator start-up from thermomechanical noise; the gates that
        // straddle it are discarded.
        (void)sys_->run(Time{3.0 * cfg_.counter_gate.value()});
    }

    OpResult run_op(LayerClock& clock) override {
        std::vector<daq::FrequencyMeasurement> ms;
        {
            const LayerClock::Span span(clock, core_layer);
            ms = sys_->run(cfg_.counter_gate);
        }
        double f_expected = 0.0;
        {
            const LayerClock::Span span(clock, mech_layer);
            f_expected = sys_->expected_resonance().value();
        }
        OpResult r;
        r.items = cfg_.counter_gate.value() * sys_->sample_rate();
        for (const auto& m : ms) {
            const double rel = std::abs(m.frequency_hz - f_expected) / f_expected;
            worst_rel_err_ = std::max(worst_rel_err_, rel);
            if (!(rel <= kTolerance)) r.ok = false;
            ++gates_;
        }
        ++ops_;
        return r;
    }

    bool verify() override {
        std::printf("resonant: theta %.3f, %zu gates over %zu ops, worst |f-f_model|/f %.3g\n",
                    theta_, gates_, ops_, worst_rel_err_);
        // Set-up runs whole gates and ops are one gate long, so every op
        // completes exactly one.
        return gates_ == ops_;
    }

private:
    /// Loop phase error and reciprocal-counter quantization stay well
    /// inside 0.1 % of the loaded resonance on every preset coverage.
    static constexpr double kTolerance = 1e-3;
    circ::FuseMode mode_;
    double theta_ = 0.0;
    std::uint64_t sensor_seed_ = 0;
    core::ResonantSensorConfig cfg_;
    std::unique_ptr<core::ResonantCantileverSystem> sys_;
    std::size_t gates_ = 0;
    std::size_t ops_ = 0;
    double worst_rel_err_ = 0.0;
};

/// Figure-4 multiplexed static chain: IgG / PSA / CRP receptors plus the
/// blocked reference channel, running the standard assay protocol (120 s
/// baseline, 900 s association, 600 s dissociation) in a loop at a
/// seed-chosen sample concentration. Each op advances binding by one
/// reading interval and reads all four channels; each reading must match
/// the chain responsivity times the surface stress its coverage produces.
class StaticAssayWorkload final : public Workload {
public:
    explicit StaticAssayWorkload(std::uint64_t seed) {
        Rng inputs(seed);
        // 3..30 nM, bracketing the IgG-class K_d of 10 nM (SI: mol/m^3).
        concentration_ = MolarConcentration{1e-6 * std::pow(10.0, inputs.uniform(0.5, 1.5))};
        protocol_ = bio::AssayProtocol::standard(concentration_);
        // Chip QC before the assay: a die whose bridge mismatch exceeds the
        // offset DAC's range saturates a channel, which then reads no
        // signal. Such dies are rejected, so draw chips until one passes.
        do {
            sensor_seed_ = inputs.raw_word();
        } while (!passes_qc(sensor_seed_));
    }

    void setup() override {
        sys_ = make_chip(sensor_seed_);
        // The protocol clock runs on across set-ups, so a run covers every
        // phase even though a block is shorter than the protocol.
        responsivity_ = sys_->stress_responsivity().value();
    }

    OpResult run_op(LayerClock& clock) override {
        {
            const LayerClock::Span span(clock, bio_layer);
            sys_->set_concentration(phase_concentration());
            sys_->advance_binding(Time{kInterval});
        }
        t_in_cycle_ = std::fmod(t_in_cycle_ + kInterval, protocol_.total_duration().value());
        std::array<double, core::StaticCantileverSystem::channel_count> out{};
        {
            const LayerClock::Span span(clock, core_layer);
            for (std::size_t k = 0; k < out.size(); ++k) {
                out[k] = sys_->read_channel(k, Time{kSettle}, Time{kIntegrate}).output.value();
            }
        }
        std::array<double, out.size()> expected{};
        {
            const LayerClock::Span span(clock, bio_layer);
            for (std::size_t k = 0; k < out.size(); ++k) {
                expected[k] = responsivity_ *
                              sys_->coating(k).surface_stress(sys_->coverage(k)).value();
            }
        }
        OpResult r;
        r.items = static_cast<double>(out.size()) * (kSettle + kIntegrate) *
                  sys_->config().sample_rate_hz;
        for (std::size_t k = 0; k < out.size(); ++k) {
            const double err = std::abs(out[k] - expected[k]);
            worst_excess_ = std::max(worst_excess_, err - kRelTol * std::abs(expected[k]));
            peak_signal_ = std::max(peak_signal_, std::abs(expected[k]));
            sum_out_exp_ += out[k] * expected[k];
            sum_exp_sq_ += expected[k] * expected[k];
            sum_err_sq_ += err * err;
            ++readings_;
            if (!(err <= kRelTol * std::abs(expected[k]) + kAbsTol)) r.ok = false;
        }
        return r;
    }

    bool verify() override {
        // Least-squares gain of measured against modelled readings: the
        // chain's end-to-end gain, which noise cannot hide over a run.
        const double gain = sum_exp_sq_ > 0.0 ? sum_out_exp_ / sum_exp_sq_ : 0.0;
        const double rms_err = std::sqrt(sum_err_sq_ / static_cast<double>(readings_));
        std::printf("static_assay: c %.3g nM, peak |signal| %.4g V, worst excess error %.3g V, "
                    "rms error %.3g V, gain %.4f\n",
                    1e6 * concentration_.value(), peak_signal_, worst_excess_, rms_err, gain);
        // The assay must produce a signal well above the reading noise.
        return peak_signal_ > kMinPeak && rms_err < kMaxRmsErr && gain > 0.85 && gain < 1.1;
    }

private:
    /// s of binding per op: a 0.5 s block on a slow host still spans the
    /// baseline and association phases.
    static constexpr double kInterval = 60.0;
    /// Per-channel read window: the chain's default. A shorter settle
    /// leaves the previous channel's pre-compensation offset in the 200 Hz
    /// post-filter.
    static constexpr double kSettle = 10e-3;  ///< s
    static constexpr double kIntegrate = 20e-3;
    /// Reading errors are 1.3-3.3 mV rms per chip, but the chain's
    /// low-frequency noise has a heavy tail: the worst of 40k readings over
    /// 20 chips was 12.6 mV. Single readings get room for that tail, the
    /// run as a whole the tighter rms bound. The chopper chain's gain sits
    /// a few % under its nominal 10^4.
    static constexpr double kRelTol = 0.1;
    static constexpr double kAbsTol = 20e-3;  ///< V
    static constexpr double kMaxRmsErr = 6e-3;  ///< V
    static constexpr double kMinPeak = 10e-3;    ///< V

    /// A calibrated 4-channel chip: IgG, PSA, CRP and the blocked reference.
    static std::unique_ptr<core::StaticCantileverSystem> make_chip(std::uint64_t sensor_seed) {
        circ::set_fuse_mode(circ::FuseMode::off);
        auto sys = std::make_unique<core::StaticCantileverSystem>(core::StaticSensorConfig{},
                                                                  Rng(sensor_seed));
        sys->set_coating(1, bio::antibody_coating(bio::library::psa()));
        sys->set_coating(2, bio::antibody_coating(bio::library::crp()));
        sys->calibrate_offsets();
        return sys;
    }

    /// Every active channel reads a saturating 100 nM dose within 15 %.
    static bool passes_qc(std::uint64_t sensor_seed) {
        const auto sys = make_chip(sensor_seed);
        sys->set_concentration(MolarConcentration{1e-4});
        sys->advance_binding(Time{600.0});
        const double responsivity = sys->stress_responsivity().value();
        for (std::size_t k = 0; k + 1 < core::StaticCantileverSystem::channel_count; ++k) {
            const double expected =
                responsivity * sys->coating(k).surface_stress(sys->coverage(k)).value();
            const double got = sys->read_channel(k, Time{kSettle}, Time{kIntegrate}).output.value();
            if (!(std::abs(got - expected) <= 0.15 * std::abs(expected))) return false;
        }
        return true;
    }

    MolarConcentration phase_concentration() const {
        double t = t_in_cycle_;
        for (const auto& p : protocol_.phases) {
            if (t < p.duration.value()) return p.concentration;
            t -= p.duration.value();
        }
        return protocol_.phases.back().concentration;
    }

    MolarConcentration concentration_{0.0};
    std::uint64_t sensor_seed_ = 0;
    bio::AssayProtocol protocol_;
    std::unique_ptr<core::StaticCantileverSystem> sys_;
    double responsivity_ = 0.0;
    double t_in_cycle_ = 0.0;
    double worst_excess_ = -1.0;
    double peak_signal_ = 0.0;
    double sum_out_exp_ = 0.0;
    double sum_exp_sq_ = 0.0;
    double sum_err_sq_ = 0.0;
    std::size_t readings_ = 0;
};

/// Process Monte-Carlo yield of the resonant cantilever (electrochemical
/// etch stop) through the surrogate tier. Set-up fits the surrogate; each
/// op is one study under its own root seed. Checks: every op's statistics
/// are physical; one study re-run under the spot-check tier (full
/// simulation on a 1-in-16 subsample, hard failure past the error budget)
/// reproduces the op bit for bit; and the full simulation on an
/// independent sample agrees statistically.
class YieldWorkload final : public Workload {
public:
    explicit YieldWorkload(std::uint64_t seed) : seeds_(seed) {}

    void setup() override {
        surrogate::set_tier(surrogate::Tier::on);
        mc_ = std::make_unique<fab::ProcessMonteCarlo>(
            mech::resonant_default(), fab::KohEtchConfig{}, fab::ProcessVariation{},
            fab::EtchMode::electrochemical_stop);
        auto& cache = surrogate::SurrogateCache::instance();
        cache.clear();
        accepted_ = cache.resonance(mc_->surrogate_box())->accepted();
        f0_nominal_ = mc_->nominal_resonance().value();
    }

    OpResult run_op(LayerClock& clock) override {
        const std::uint64_t root = seeds_.raw_word();
        fab::MonteCarloStats st;
        {
            const LayerClock::Span span(clock, fab_layer);
            st = mc_->run_seeded(kTrials, root, kTolerance, nullptr);
        }
        if (!first_) first_ = std::make_pair(root, st);
        OpResult r;
        r.items = static_cast<double>(kTrials);
        r.ok = st.samples == kTrials && st.yield > 0.9 && st.yield <= 1.0 &&
               std::abs(st.f0_mean_hz - f0_nominal_) < 0.01 * f0_nominal_ &&
               st.f0_sigma_hz > 0.0;
        yield_sum_ += st.yield;
        ++ops_;
        return r;
    }

    bool verify() override {
        if (!accepted_ || !first_) return false;
        const auto [root, on] = *first_;
        surrogate::set_tier(surrogate::Tier::check);
        surrogate::set_check_stride(16);
        const auto checked = mc_->run_seeded(kTrials, root, kTolerance, nullptr);
        surrogate::set_tier(surrogate::Tier::off);
        const auto full = mc_->run_seeded(kFullTrials, root, kTolerance, nullptr);
        surrogate::set_tier(surrogate::Tier::on);
        const bool same = checked.yield == on.yield && checked.f0_mean_hz == on.f0_mean_hz &&
                          checked.f0_sigma_hz == on.f0_sigma_hz;
        // Independent samples: means within 5 standard errors.
        const double se =
            std::hypot(on.f0_sigma_hz / std::sqrt(static_cast<double>(kTrials)),
                       full.f0_sigma_hz / std::sqrt(static_cast<double>(kFullTrials)));
        const bool agree = std::abs(on.f0_mean_hz - full.f0_mean_hz) < 5.0 * se &&
                           std::abs(on.yield - full.yield) < 0.02;
        std::printf("yield_mc: %zu studies, mean yield %.4f; full sim %.4f, f0 %.6g vs %.6g Hz\n",
                    ops_, yield_sum_ / static_cast<double>(ops_), full.yield, on.f0_mean_hz,
                    full.f0_mean_hz);
        return same && agree;
    }

private:
    static constexpr std::size_t kTrials = 65536;
    static constexpr std::size_t kFullTrials = 8192;
    static constexpr double kTolerance = 0.05;  ///< +-5 % f0 band
    Rng seeds_;  ///< root seed of each study
    std::unique_ptr<fab::ProcessMonteCarlo> mc_;
    bool accepted_ = false;
    double f0_nominal_ = 0.0;
    std::optional<std::pair<std::uint64_t, fab::MonteCarloStats>> first_;
    double yield_sum_ = 0.0;
    std::size_t ops_ = 0;
};

struct WorkloadSpec {
    const char* name;
    std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};
const std::array<WorkloadSpec, 4> kWorkloads = {{
    {"resonant_ref",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
         return std::make_unique<ResonantWorkload>(seed, circ::FuseMode::off);
     }},
    {"resonant_fused",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
         return std::make_unique<ResonantWorkload>(seed, circ::FuseMode::simd);
     }},
    {"yield_mc",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
         return std::make_unique<YieldWorkload>(seed);
     }},
    {"static_assay",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
         return std::make_unique<StaticAssayWorkload>(seed);
     }},
}};

// --- Reporting ---------------------------------------------------------------

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

class MetricsJson {
public:
    void add(const std::string& name, double value, const char* unit) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!body_.empty()) body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    }
    [[nodiscard]] const std::string& str() const { return body_; }

private:
    std::string body_;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

Options parse(int argc, char** argv) {
    const std::string usage =
        "usage: cbs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    if (argc != 9) throw std::invalid_argument(usage);
    Options o;
    int seen = 0;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            o.workload = val;
            seen |= 1;
        } else if (key == "--seed") {
            o.seed = std::stoull(val);
            seen |= 2;
        } else if (key == "--seconds") {
            o.seconds = std::stod(val);
            seen |= 4;
        } else if (key == "--trace" && (val == "0" || val == "1")) {
            o.trace = val == "1";
            seen |= 8;
        } else {
            throw std::invalid_argument("bad option " + key + " " + val + "\n" + usage);
        }
    }
    if (seen != 15) throw std::invalid_argument(usage);
    if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return o;
}

/// Library counters the per-layer metrics are built from.
enum Counter {
    loop_ticks,
    adc_samples,
    mc_trials,
    counter_gates,
    adc_clips,
    surrogate_evals,
    surrogate_fallbacks,
    mc_functional,
    counter_count
};
constexpr std::array<const char*, counter_count> kCounterNames = {
    "resonant.ticks",  "adc.samples",       "mc.trials",
    "counter.gates",   "adc.clip_events",   "mc.surrogate.eval",
    "mc.surrogate.fallback_full",           "mc.functional"};
using Counts = std::array<double, counter_count>;

Counts read_counts() {
    Counts c{};
    for (int i = 0; i < counter_count; ++i) {
        c[i] = static_cast<double>(
            obs::MetricsRegistry::instance().counter(kCounterNames[i])->value());
    }
    return c;
}

/// A run is cut into this many blocks of equal length. Each block starts
/// with a fresh bring-up, timed as set-up, and then runs ops until its time
/// is up. On a shared host, co-tenant load slows the simulation by up to
/// 1.5x for one to three seconds at a time. The op time reported is the
/// median op of the fastest block, so a run reads the same unless the
/// interference covers all of it; set-up time is the median bring-up.
constexpr int kBlocks = 20;
constexpr std::size_t kMinOpsPerBlock = 2;

int run(const Options& opt) {
    const WorkloadSpec* spec = nullptr;
    for (const auto& w : kWorkloads) {
        if (opt.workload == w.name) spec = &w;
    }
    if (spec == nullptr) {
        std::fprintf(stderr, "cbs_perfbench: unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    const auto work = spec->make(opt.seed);
    obs::set_level(opt.trace ? obs::Level::summary : obs::Level::off);

    LayerClock layers(opt.trace);
    std::vector<double> setup_s;
    std::vector<double> block_op_ms;  ///< median op time of each block
    std::vector<double> op_s;
    Counts op_counts{};  ///< library work done inside ops (set-up excluded)
    double items = 0.0;
    std::uint64_t failed = 0;
    const double block_s = opt.seconds / kBlocks;
    for (int b = 0; b < kBlocks; ++b) {
        const auto t_setup = Clock::now();
        work->setup();
        setup_s.push_back(seconds_since(t_setup));

        const Counts before = read_counts();
        const std::size_t first = op_s.size();
        const auto start = Clock::now();
        while (seconds_since(start) < block_s || op_s.size() - first < kMinOpsPerBlock) {
            const auto t0 = Clock::now();
            OpResult r;
            {
                const LayerClock::Span span(layers, harness);
                r = work->run_op(layers);
            }
            op_s.push_back(seconds_since(t0));
            items += r.items;
            if (!r.ok) ++failed;
        }
        const Counts after = read_counts();
        for (int i = 0; i < counter_count; ++i) op_counts[i] += after[i] - before[i];
        const std::vector<double> block(op_s.begin() + static_cast<std::ptrdiff_t>(first),
                                        op_s.end());
        block_op_ms.push_back(1e3 * median(block));
    }
    double busy_s = 0.0;
    for (double v : op_s) busy_s += v;
    const auto ops = static_cast<double>(op_s.size());
    const double op_ms = *std::min_element(block_op_ms.begin(), block_op_ms.end());
    // The kernel histograms hold wall time per sample (ns), observed once
    // per batch, so mean x samples is the time spent in them.
    auto& reg = obs::MetricsRegistry::instance();
    const double kernel_s =
        1e-9 * (reg.histogram("proc.resonant_loop")->mean() * op_counts[loop_ticks] +
                reg.histogram("proc.static_chain")->mean() * op_counts[adc_samples]);

    const bool verified = work->verify();

    MetricsJson m;
    if (opt.trace) {
        m.add("op_traced_ms", op_ms, "ms");
        m.add("ns_per_item", 1e9 * busy_s / items, "ns");
        for (int l = 0; l < layer_count; ++l) {
            m.add(std::string(kLayerNames[l]) + "_pct",
                  100.0 * layers.self_seconds(static_cast<Layer>(l)) / busy_s, "%");
        }
        m.add("kernel_pct", 100.0 * kernel_s / busy_s, "%");
        m.add("ticks_per_op", op_counts[loop_ticks] / ops, "count");
        m.add("chain_samples_per_op", op_counts[adc_samples] / ops, "count");
        m.add("trials_per_op", op_counts[mc_trials] / ops, "count");
        m.add("counter_gates_per_op", op_counts[counter_gates] / ops, "count");
        m.add("adc_clips_per_op", op_counts[adc_clips] / ops, "count");
        const double functional = op_counts[mc_functional];
        m.add("surrogate_eval_pct",
              functional > 0.0 ? 100.0 * op_counts[surrogate_evals] / functional : 0.0, "%");
        m.add("surrogate_fallbacks_per_op", op_counts[surrogate_fallbacks] / ops, "count");
    } else {
        m.add("op_ms", op_ms, "ms");
        m.add("setup_s", median(setup_s), "s");
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, \"metrics\": {%s}}\n",
                failed == 0 && verified ? "true" : "false", op_s.size(),
                static_cast<unsigned long long>(failed), m.str().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cbs_perfbench: %s\n", e.what());
        return 2;
    }
}
