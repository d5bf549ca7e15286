void Run() { PublishSynopsisQuality("stub", synopsis, 0.0); }
