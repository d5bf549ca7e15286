// dist-quality-metrics: this driver never publishes its quality gauges.
void Run() {}
