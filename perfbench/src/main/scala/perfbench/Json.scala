package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** JSON rendering of the benchmark's output (Scala maps keep their order). */
object Json {
  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)

  def apply(v: Any): String = mapper.writeValueAsString(v)
}
