#include "fuzzgen.hpp"

#include <sstream>

namespace perfbench {

namespace {

class Writer {
 public:
  Writer(const Family& f, Rng& rng) : f_(f), rng_(rng) {}

  std::string var() { return "x" + std::to_string(rng_.below(f_.vars)); }
  std::string reg() { return "r" + std::to_string(next_reg_++); }
  int value() { return 1 + rng_.below(2); }

  // One access: relaxed or releasing write, relaxed or acquiring read, or a
  // release-acquire swap (capturing its read value half of the time).
  std::string access() {
    const int k = rng_.below(100);
    std::ostringstream os;
    if (k < 35) {
      os << var() << (rng_.percent(50) ? " :=R " : " := ") << value() << ";";
    } else if (k < 70) {
      const std::string r = reg();
      os << r << " := " << var() << (rng_.percent(50) ? "@A" : "") << ";";
    } else {
      const std::string x = var();
      if (rng_.percent(50)) os << reg() << " := ";
      os << x << ".swap(" << value() << ");";
    }
    return os.str();
  }

  // A top-level statement: an access, or (one time in five) a conditional
  // on a shared read with an access in the then branch and, half of the
  // time, another in the else branch.
  std::string statement() {
    if (!rng_.percent(20)) return access();
    std::ostringstream os;
    os << "if (" << var() << (rng_.percent(50) ? "@A" : "")
       << " == " << rng_.below(3) << ") { " << access() << " }";
    if (rng_.percent(50)) os << " else { " << access() << " }";
    return os.str();
  }

 private:
  const Family& f_;
  Rng& rng_;
  int next_reg_ = 0;
};

}  // namespace

std::string generate_program_text(const Family& family, std::uint64_t seed,
                                  int index) {
  // Each program gets its own stream, so a family's programs do not shift
  // when another family changes size.
  Rng mix(seed ^ 0x5eed5eed5eed5eedULL);
  for (const char* c = family.name; *c != '\0'; ++c) {
    mix = Rng(mix.next() ^ static_cast<unsigned char>(*c));
  }
  Rng rng(mix.next() + static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL);
  Writer w(family, rng);

  std::ostringstream os;
  os << "litmus fuzz_" << family.name << "_" << index << "\n";
  for (int v = 0; v < family.vars; ++v) os << "var x" << v << " = 0\n";
  for (int t = 1; t <= family.threads; ++t) {
    os << "thread " << t << " {";
    for (int s = 0; s < family.stmts; ++s) os << " " << w.statement();
    os << " }\n";
  }
  return os.str();
}

}  // namespace perfbench
