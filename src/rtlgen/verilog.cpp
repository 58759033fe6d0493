#include "rtlgen/verilog.hpp"

#include <stdexcept>

namespace nacu::rtlgen {

ModuleBuilder::ModuleBuilder(std::string name) : name_{std::move(name)} {}

ModuleBuilder& ModuleBuilder::input(const std::string& name, int width) {
  ports_.push_back(Port{"input", name, width, false});
  return *this;
}

ModuleBuilder& ModuleBuilder::output(const std::string& name, int width,
                                     bool reg) {
  ports_.push_back(Port{"output", name, width, reg});
  return *this;
}

ModuleBuilder& ModuleBuilder::localparam(const std::string& name,
                                         std::int64_t value) {
  localparams_.push_back("localparam " + name + " = " +
                         std::to_string(value) + ";");
  return *this;
}

ModuleBuilder& ModuleBuilder::body(const std::string& line) {
  body_.push_back(line);
  return *this;
}

ModuleBuilder& ModuleBuilder::blank() {
  body_.emplace_back();
  return *this;
}

std::string ModuleBuilder::str() const {
  std::ostringstream os;
  os << "module " << name_ << " (\n";
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    os << "  " << p.direction;
    if (p.reg) {
      os << " reg";
    }
    if (p.width > 1) {
      os << " " << range(p.width);
    }
    os << " " << p.name << (i + 1 < ports_.size() ? "," : "") << "\n";
  }
  os << ");\n";
  for (const std::string& lp : localparams_) {
    os << "  " << lp << "\n";
  }
  if (!localparams_.empty()) {
    os << "\n";
  }
  for (const std::string& line : body_) {
    if (line.empty()) {
      os << "\n";
    } else {
      os << "  " << line << "\n";
    }
  }
  os << "endmodule\n";
  return os.str();
}

std::string bin_literal(std::int64_t value, int width) {
  if (width < 1 || width > 63) {
    throw std::invalid_argument("bin_literal width out of range");
  }
  const auto bits = static_cast<std::uint64_t>(value) &
                    ((std::uint64_t{1} << width) - 1);
  std::string digits(static_cast<std::size_t>(width), '0');
  for (int i = 0; i < width; ++i) {
    if ((bits >> i) & 1u) {
      digits[static_cast<std::size_t>(width - 1 - i)] = '1';
    }
  }
  return std::to_string(width) + "'b" + digits;
}

std::string range(int width) {
  if (width <= 1) {
    return "";
  }
  // Appended piece by piece: GCC 12 at -O3 draws a false -Wrestrict from
  // the inlined concatenation of a literal and a temporary.
  std::string r = "[";
  r += std::to_string(width - 1);
  r += ":0]";
  return r;
}

}  // namespace nacu::rtlgen
