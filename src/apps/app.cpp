#include "apps/app.hpp"

namespace svmsim::apps {

std::string to_string(Scale s) {
  return std::string(kScaleNames[static_cast<std::size_t>(s)].first);
}

}  // namespace svmsim::apps
