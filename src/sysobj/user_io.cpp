#include "sysobj/user_io.hpp"

namespace clouds::sysobj {

namespace {
enum class IoOp : std::uint8_t { write = 60, read_line = 61 };
}

Workstation::Workstation(ra::Node& node) : node_(node) {
  node_.ratp().bindService(net::kPortUserIo,
                           [this](sim::Process& self, net::NodeId, const Bytes& request) {
                             return serve(self, request);
                           });
}

std::string Workstation::joinedOutput(WindowId window, const std::string& sep) {
  std::string out;
  for (const auto& line : windows_[window].output) {
    if (!out.empty()) out += sep;
    out += line;
  }
  return out;
}

Bytes Workstation::serve(sim::Process& self, const Bytes& request) {
  node_.cpu().compute(self, node_.cost().syscall);
  return net::answer(request, [this](Decoder& d, Encoder& reply) -> Result<void> {
    CLOUDS_TRY_ASSIGN(op, d.u8());
    CLOUDS_TRY_ASSIGN(window, d.u32());
    Terminal& term = windows_[window];
    switch (static_cast<IoOp>(op)) {
      case IoOp::write: {
        CLOUDS_TRY_ASSIGN(text, d.str());
        term.output.push_back(std::move(text));
        node_.simulation().trace(node_.name(), "tty",
                                 "w" + std::to_string(window) + ": " + term.output.back());
        return okResult();
      }
      case IoOp::read_line:
        // No input pending: the paper's user would type; our deterministic
        // terminals fail fast instead of blocking forever.
        if (term.input.empty()) return makeError(Errc::not_found, "no input pending");
        reply.str(term.input.front());
        term.input.pop_front();
        return okResult();
      default:
        return makeError(Errc::bad_argument, "unknown user I/O op");
    }
  });
}

Result<void> IoClient::write(sim::Process& self, net::NodeId workstation, WindowId window,
                             const std::string& text) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(IoOp::write));
  e.u32(window);
  e.str(text);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, workstation, net::kPortUserIo,
                                                 std::move(e).take()));
  Decoder d(reply);
  return net::decodeStatus(d, "terminal write failed");
}

Result<std::string> IoClient::readLine(sim::Process& self, net::NodeId workstation,
                                       WindowId window) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(IoOp::read_line));
  e.u32(window);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, workstation, net::kPortUserIo,
                                                 std::move(e).take()));
  Decoder d(reply);
  CLOUDS_TRY(net::decodeStatus(d, "terminal read failed (no input pending?)"));
  return d.str();
}

}  // namespace clouds::sysobj
