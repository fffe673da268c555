package perfbench

import org.scalatest.funsuite.AnyFunSuite

/** Every workload, untraced and traced, for a few batches: each is checked
  * against the oracle and reports every metric by name.
  */
class SmokeSpec extends AnyFunSuite {
  for (w <- Workloads.all; trace <- Seq(false, true)) {
    test(s"${w.name} runs and checks a few batches (trace=$trace)") {
      val r = new Runner(w, Options(w.name, seed = 1L, seconds = 0.01, trace = trace, smoke = true)).run()
      assert(r.correct)
      assert(r.failed == 0 && r.attempted > 0)
      val names = if (trace) MetricNames.PerLayer else MetricNames.EndToEnd
      assert(r.metrics.map(m => (m.name, m.unit)) == names)
      assert(r.metrics.forall(m => !m.value.isNaN && !m.value.isInfinite))
      if (!trace) assert(r.metrics.forall(_.value > 0))
    }
  }

  test("options are parsed strictly") {
    val ok = Options.parse(Seq("--workload", "khop-sk-dd", "--seed", "3", "--seconds", "10", "--trace", "1"))
    assert(ok == Right(Options("khop-sk-dd", 3L, 10.0, trace = true)))
    assert(Options.parse(Seq("--workload", "nope", "--seed", "3", "--seconds", "10", "--trace", "0")).isLeft)
    assert(Options.parse(Seq("--workload", "khop-sk-dd", "--seed", "x", "--seconds", "10", "--trace", "0")).isLeft)
    assert(Options.parse(Seq("--workload", "khop-sk-dd", "--seed", "3", "--seconds", "10", "--trace", "2")).isLeft)
  }
}
