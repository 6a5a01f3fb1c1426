// Detection outcomes pinned across transform-kernel changes.
//
// The transforms promise 1e-12 agreement with the direct DFT, not
// particular bits, so a change of kernel moves every spectrum and ACF at
// rounding level. What must not move is what FTIO reports: whether a
// period was found, the period, and its confidence. This test replays
// reduced-size versions of the Fig. 10-12 generator traces through the
// offline detect() path, and one 60-flush StreamingSession per
// application (IOR, HACC-IO, LAMMPS) through the online path, and checks
// each outcome against values recorded from the kernel set before the
// 3*2^k / 5*2^k convolution lengths: found flags exactly, periods and
// confidences to 1e-9 relative.
//
// On a mismatch the test prints every outcome as a table row, so a
// deliberate change of outcome can be re-recorded from its output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/ftio.hpp"
#include "engine/streaming.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/rng.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"

namespace {

namespace core = ftio::core;
namespace wl = ftio::workloads;
using ftio::trace::IoRequest;

/// One reported outcome: found flag, period [s], c_d and the refined
/// (detector-merged) confidence.
struct Outcome {
  bool found = false;
  double period = 0.0;
  double dft_confidence = 0.0;
  double confidence = 0.0;
};

Outcome from_result(const core::FtioResult& r) {
  return {r.periodic(), r.periodic() ? r.period() : 0.0, r.dft.confidence,
          r.confidence()};
}

Outcome from_prediction(const core::Prediction& p) {
  return {p.found(), p.period(), p.confidence, p.refined_confidence};
}

/// Offline cases: reduced Fig. 10 (LAMMPS) and Fig. 12 (HACC-IO) traces
/// through detect(), and the Fig. 11 Nek5000 heatmap's full and reduced
/// windows through analyze_bandwidth().
std::vector<Outcome> offline_outcomes() {
  std::vector<Outcome> out;
  {
    wl::LammpsConfig c;
    c.ranks = 256;
    core::FtioOptions opts;
    opts.sampling_frequency = 10.0;
    out.push_back(from_result(core::detect(wl::generate_lammps_trace(c),
                                           opts)));
  }
  {
    const auto heatmap = ftio::trace::from_heatmap_csv(
        ftio::trace::to_heatmap_csv(wl::generate_nek5000_heatmap()));
    const auto bandwidth = heatmap.bandwidth();
    core::FtioOptions opts;
    opts.sampling_frequency = heatmap.implied_sampling_frequency();
    opts.sampling_mode = ftio::signal::SamplingMode::kBinAverage;
    out.push_back(from_result(core::analyze_bandwidth(bandwidth, opts)));
    opts.window_end = 56'000.0;
    out.push_back(from_result(core::analyze_bandwidth(bandwidth, opts)));
  }
  {
    wl::HaccIoConfig c;
    c.ranks = 256;
    core::FtioOptions opts;
    opts.sampling_frequency = 10.0;
    opts.candidates.tolerance = 0.55;
    out.push_back(from_result(core::detect(wl::generate_haccio_trace(c),
                                           opts)));
  }
  return out;
}

/// Splits a trace into its I/O phases: a phase ends where no request is
/// in flight for more than half a second.
std::vector<std::vector<IoRequest>> split_phases(ftio::trace::Trace trace) {
  trace.sort_by_start();
  std::vector<std::vector<IoRequest>> phases;
  double busy_until = -1e300;
  for (const IoRequest& r : trace.requests) {
    if (phases.empty() || r.start > busy_until + 0.5) phases.emplace_back();
    phases.back().push_back(r);
    busy_until = std::max(busy_until, r.end);
  }
  return phases;
}

constexpr int kPhases = 60;

/// The online_multitenant session shape: adaptive window at 10 Hz,
/// compaction on, triage off, one flush per I/O phase.
std::vector<Outcome> stream_outcomes(const ftio::trace::Trace& trace) {
  ftio::engine::StreamingOptions options;
  options.online.strategy = core::WindowStrategy::kAdaptive;
  options.online.base.sampling_frequency = 10.0;
  options.compaction.enabled = true;
  options.triage.enabled = false;
  options.engine.threads = 1;
  ftio::engine::StreamingSession session(options);
  std::vector<Outcome> out;
  for (const auto& flush : split_phases(trace)) {
    session.ingest(std::span<const IoRequest>(flush));
    out.push_back(from_prediction(session.predict()));
  }
  return out;
}

ftio::trace::Trace ior_trace() {
  wl::IorConfig c;
  c.ranks = 128;
  c.iterations = kPhases;
  c.compute_seconds = 25.0;
  c.seed = 11;
  return wl::generate_ior_trace(c);
}

ftio::trace::Trace haccio_trace() {
  wl::HaccIoConfig c;
  c.ranks = 40;
  c.loops = kPhases;
  ftio::util::Rng rng(12);
  c.phase_gaps.clear();
  for (int k = 1; k < kPhases; ++k) {
    c.phase_gaps.push_back(13.0 * rng.uniform(0.95, 1.05));
  }
  c.first_phase_start = 1.0;
  c.first_phase_duration = c.write_seconds + c.read_seconds;
  c.seed = 12;
  return wl::generate_haccio_trace(c);
}

ftio::trace::Trace lammps_trace() {
  wl::LammpsConfig c;
  c.ranks = 160;
  c.steps = kPhases * c.dump_every;
  c.step_seconds = 1.0;
  c.seed = 13;
  return wl::generate_lammps_trace(c);
}

std::string row(const Outcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "    {%s, %.17g, %.17g, %.17g},",
                o.found ? "true" : "false", o.period, o.dft_confidence,
                o.confidence);
  return buf;
}

/// Equal to 1e-9 relative (exact when either side is 0).
bool close(double got, double want) {
  return std::abs(got - want) <=
         1e-9 * std::max(std::abs(got), std::abs(want));
}

void expect_pinned(const std::vector<Outcome>& got,
                   const std::vector<Outcome>& want, const char* what) {
  std::string table;
  for (const auto& o : got) table += row(o) + "\n";
  ASSERT_EQ(got.size(), want.size()) << what << ", outcomes now:\n" << table;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same = got[i].found == want[i].found &&
                      close(got[i].period, want[i].period) &&
                      close(got[i].dft_confidence, want[i].dft_confidence) &&
                      close(got[i].confidence, want[i].confidence);
    EXPECT_TRUE(same) << what << " #" << i << ": got\n"
                      << row(got[i]) << "\nwant\n" << row(want[i]);
  }
  if (::testing::Test::HasFailure()) {
    std::printf("%s outcomes now:\n%s", what, table.c_str());
  }
}

// Recorded values, one row per outcome: {found, period, c_d, refined}.

const std::vector<Outcome> kOffline = {
    {true, 27.401543338464336, 0.58827852507359413, 0.47516395335207545},
    {false, 0, 0, 0},
    {true, 4694.0905151042434, 0.86990038177653251, 0.68632401198359272},
    {true, 7.6960557599772681, 0.54902154129576075, 0.84458577481761343},
};

const std::vector<Outcome> kIor = {
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 24.947433507816978, 0.52525141074158477, 0.60332079402107264},
    {true, 25.021494000325745, 0.52505040807268211, 0.60349532113305482},
    {true, 25.011989068332269, 0.55252628150134964, 0.61262295929257471},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 25.032909800820008, 0.51715304672431661, 0.51715304672431661},
    {true, 25.019425037193677, 0.53031097528645355, 0.53031097528645355},
    {false, 0, 0, 0},
    {true, 25.041318298805766, 0.518925051169151, 0.518925051169151},
    {true, 25.025293671638625, 0.51880540151649523, 0.51880540151649523},
    {false, 0, 0, 0},
    {true, 25.050926722660915, 0.51964392614820787, 0.51964392614820787},
    {true, 25.046476429271266, 0.52211261377929719, 0.52211261377929719},
    {true, 25.042405173820061, 0.51556644556970221, 0.51556644556970221},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 24.891461611699764, 0.53086480202081476, 0.8323452124756181},
    {true, 24.93319480435332, 0.53424385106680761, 0.83344626759492257},
    {true, 24.925781379613326, 0.54830087923700177, 0.83813680319572736},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
};

const std::vector<Outcome> kHaccIo = {
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 13.540725903709479, 0.82993700907458867, 0.93186540464772427},
    {true, 13.463538123833331, 0.83201717841771927, 0.93427796276336073},
    {true, 13.445027017943138, 0.83316917797114498, 0.93947542361630365},
    {true, 13.469323940881655, 0.7605693733580976, 0.91580098490659978},
    {true, 13.50065222405536, 0.76076213520105895, 0.91470865303237137},
    {true, 13.585095013928299, 0.83801932726378958, 0.93706700142990107},
    {true, 13.684142075653559, 0.80624668574991243, 0.91888166122368309},
    {true, 13.742839667648003, 0.72572751203809627, 0.89488340061220528},
    {true, 13.799036661367378, 0.72556779083812417, 0.89103478919548984},
    {true, 13.883106852701177, 0.76651980295514499, 0.90966360553134251},
    {true, 13.933443215301983, 0.71845824014450765, 0.89711352934235256},
    {true, 14.008251659138327, 0.72122223296055399, 0.8967432012694444},
    {true, 14.051433070831612, 0.71126021139680495, 0.89066934415836219},
    {true, 14.061898973471681, 0.71180113735508632, 0.88809570171147245},
    {true, 14.120235756322163, 0.72154304480934561, 0.89647517160590617},
    {true, 14.128477913597592, 0.70956258547317175, 0.88845170492405956},
    {true, 14.116623463391639, 0.71034118448288064, 0.89025288430224947},
    {true, 14.097715774708629, 0.69945569662024543, 0.88440838208339967},
    {true, 14.055829326433363, 0.70244187681461545, 0.88816477151619633},
    {true, 14.103638403050729, 0.72718316285281936, 0.89146553018271446},
    {true, 14.163883906707106, 0.72009202293263974, 0.88974382319044043},
    {true, 14.159259337952358, 0.71002700881565306, 0.88988852337158308},
    {true, 14.075165375887627, 0.79118684159045483, 0.91774843414413765},
    {true, 13.961176395794817, 0.78161682527972665, 0.91672745275451017},
    {true, 13.810213022557274, 0.78668302254806111, 0.91188261741573984},
    {true, 13.736644000348743, 0.78685749551368078, 0.91740648305164763},
    {true, 13.815739965564998, 0.77907739948389132, 0.91030920124796533},
    {true, 13.875374875712909, 0.8134252329430971, 0.91808161113331632},
    {true, 13.94302554687717, 0.80531830136679083, 0.91478428272277867},
    {true, 14.027274474481036, 0.76501891979680581, 0.91252148139258438},
    {true, 14.08918133777618, 0.71643655457600364, 0.89512635516503813},
    {true, 14.133006604417178, 0.71323000007389126, 0.88995797226278717},
    {true, 14.199362280434459, 0.71487952336172378, 0.89337551057267905},
    {true, 14.141348602582429, 0.71042955116475592, 0.88937466045017388},
    {true, 14.152654559372449, 0.7115484553188246, 0.88841471441216735},
    {true, 14.000407089899083, 0.79055556031559093, 0.9158955021309102},
    {true, 14.029715701006394, 0.73179833016673801, 0.88309852907984643},
    {true, 14.106382573200367, 0.73041130284090494, 0.89928929336176555},
    {true, 14.132210389755437, 0.71595406960778907, 0.89481304144255291},
    {true, 14.135774778281561, 0.72347197229449933, 0.8972816937561241},
    {true, 14.134074095098081, 0.70594092363934813, 0.88631199384599402},
    {true, 14.152322415479597, 0.71578204505593457, 0.89615675138179929},
    {true, 14.136113587122026, 0.7116642238594334, 0.88697279977105692},
    {true, 14.138898464742494, 0.71494780841374872, 0.89212922128842631},
    {true, 14.144341849921283, 0.70900972743899593, 0.88970718278461669},
    {true, 14.128012095620218, 0.71312815307638866, 0.8909552712942258},
    {true, 14.183545648871446, 0.72101135570354691, 0.88984086244997462},
    {true, 14.266451271564232, 0.71476890538620841, 0.89497691678695579},
    {true, 14.322799597072812, 0.72037215706929936, 0.89593619946978365},
    {true, 14.333541406429838, 0.75524024041896132, 0.90544699334208323},
    {true, 14.191424558347558, 0.80796476294817166, 0.91694337996296837},
    {true, 14.086791283082519, 0.79625796483029943, 0.9142458921674258},
    {true, 14.029589030890666, 0.70450279997846044, 0.88452166570553536},
    {true, 14.086357511012299, 0.71036823932453974, 0.8919143714017258},
    {true, 14.097531267189829, 0.73673879803015829, 0.89697899787655311},
    {true, 14.009402746580381, 0.78620180267055861, 0.91888494148511091},
    {true, 14.030521274616031, 0.71576937360069481, 0.89407923932954103},
    {true, 13.947784339119741, 0.78160625808827344, 0.91713246435525342},
};

const std::vector<Outcome> kLammps = {
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 19.709595081641471, 0.67305013184504536, 0.26497465718067298},
    {true, 19.771555127891144, 0.57848031240232778, 0.32505475105167986},
    {true, 19.71927882905009, 0.61243542755288261, 0.48029934288430454},
    {true, 19.732621384285949, 0.67570821481882781, 0.8842202788291349},
    {true, 19.803347868635814, 0.58588110819488159, 0.19529370273162719},
    {true, 19.825694903303461, 0.57793263754984836, 0.85326565265302523},
    {true, 19.843834205212392, 0.56523924339666975, 0.22125051947618757},
    {true, 19.839478402382763, 0.71619297342194232, 0.88998554412299413},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 19.812846740862739, 0.57159939415160343, 0.38225927218915928},
    {true, 19.933857982911878, 0.57575784724734058, 0.40969650406386188},
    {true, 20.023523275736967, 0.55716449737949469, 0.8261114480646411},
    {true, 20.078081896822251, 0.59322222788077927, 0.85793313886435951},
    {true, 20.085084135698786, 0.59784590225407241, 0.86343402661799962},
    {true, 20.090264195007791, 0.71679548211590016, 0.8899565355162915},
    {true, 20.091893203886851, 0.63129954102112273, 0.87424274083614628},
    {true, 20.093613761760029, 0.64355690250476072, 0.87669734052882664},
    {true, 20.055868573269112, 0.71747620985007365, 0.8858047511596876},
    {true, 20.108223117535644, 0.58760293027298949, 0.46467757327088943},
    {true, 20.065158999467851, 0.60948061007277154, 0.85914661185176389},
    {true, 20.108475094075789, 0.64570119998164011, 0.42686842695129235},
    {true, 20.260106887050885, 0.56398559368303069, 0.50383306852496101},
    {true, 20.32311337571447, 0.59472803866588009, 0.84777126889560506},
    {true, 20.328498254913789, 0.59628548967955297, 0.19876182989318433},
    {true, 20.301739419335014, 0.58326501417895338, 0.3968093045065868},
    {true, 20.346202625420485, 0.57425716153234918, 0.82581529281564592},
    {true, 20.376333927456443, 0.59492596585556279, 0.40761612010555942},
    {true, 20.393282584577676, 0.60200403894529597, 0.84860101977436087},
    {true, 20.460130668032853, 0.60457323859208811, 0.50819746883638794},
    {true, 20.58745873127166, 0.56586048886755225, 0.83492465618240885},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 20.511002955079647, 0.56895170097734171, 0.83187803214215805},
    {true, 20.523581100914917, 0.56637689778299427, 0.82462212208972863},
    {true, 20.504067350893823, 0.56684544327372732, 0.82921062242484034},
    {true, 20.539646296612847, 0.6272819862687492, 0.86397474119506512},
    {true, 20.789232010411517, 0.32622860119039976, 0.74567310865237124},
    {true, 21.12155096488949, 0.085118169181658029, 0.66699401896861465},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 20.887493627174063, 0.54850248537470758, 0.32530749624473582},
    {true, 20.692131288747216, 0.54909206819427747, 0.44575416768439124},
    {true, 20.462617083233582, 0.54992252020508547, 0.5089085436512103},
    {true, 20.751923696692387, 0.58185305925156361, 0.38343856768391915},
    {true, 20.701508418438713, 0.056569867575913028, 0.66473200335558991},
    {false, 0, 0, 0},
    {false, 0, 0, 0},
    {true, 20.78160337968735, 0.3129354545357565, 0.75599135265839068},
    {true, 20.496792523077524, 0.339257898837377, 0.7668405123716443},
    {true, 20.321182241345536, 0.56077973139486015, 0.82315521499424538},
    {true, 20.418843747959258, 0.60438624376951855, 0.42928657561475952},
    {true, 20.440561362266326, 0.62004083011632349, 0.36562079093649974},
    {true, 20.424818727931161, 0.56849576207017893, 0.85384212486727884},
    {true, 20.43182567252218, 0.66769980987610322, 0.3987650963616905},
    {true, 20.450980508806289, 0.67718472025255072, 0.52959879086807737},
};

}  // namespace

TEST(DetectionPin, OfflineFigureTraces) {
  expect_pinned(offline_outcomes(), kOffline, "offline");
}

TEST(DetectionPin, StreamingIor) {
  expect_pinned(stream_outcomes(ior_trace()), kIor, "ior");
}

TEST(DetectionPin, StreamingHaccIo) {
  expect_pinned(stream_outcomes(haccio_trace()), kHaccIo, "hacc-io");
}

TEST(DetectionPin, StreamingLammps) {
  expect_pinned(stream_outcomes(lammps_trace()), kLammps, "lammps");
}
